#include "src/core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/fed/shard/sharded_server.h"
#include "src/math/init.h"

namespace hetefedrec {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 1.0, &rng);
  return m;
}

TEST(CheckpointTest, MatrixRoundTripBitExact) {
  Matrix m = RandomMatrix(7, 5, 1);
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrix(&ss, m).ok());
  auto r = ReadMatrix(&ss);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->SameShape(m));
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_EQ(r->data()[i], m.data()[i]);  // bit exact, no tolerance
  }
}

TEST(CheckpointTest, MetaRoundTrip) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMeta(&ss, "base_model", "ncf").ok());
  auto r = ReadMeta(&ss);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, "base_model");
  EXPECT_EQ(r->second, "ncf");
}

TEST(CheckpointTest, HeaderValidation) {
  std::stringstream ss;
  ASSERT_TRUE(WriteCheckpointHeader(&ss).ok());
  EXPECT_TRUE(ReadCheckpointHeader(&ss).ok());

  std::stringstream bad("NOPE");
  EXPECT_FALSE(ReadCheckpointHeader(&bad).ok());
}

TEST(CheckpointTest, TruncatedMatrixFails) {
  Matrix m = RandomMatrix(4, 4, 2);
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrix(&ss, m).ok());
  std::string bytes = ss.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2));
  auto r = ReadMatrix(&cut);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, WrongTagFails) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMeta(&ss, "k", "v").ok());
  EXPECT_FALSE(ReadMatrix(&ss).ok());
}

TEST(CheckpointTest, FfnRoundTripPreservesArchitectureAndOutputs) {
  Rng rng(3);
  FeedForwardNet net(12, {8, 8});
  net.InitXavier(&rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteFfn(&ss, net).ok());
  auto r = ReadFfn(&ss);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->input_dim(), 12u);
  EXPECT_EQ(r->num_layers(), 3u);
  std::vector<double> x(12, 0.25);
  EXPECT_EQ(r->Forward(x.data(), nullptr), net.Forward(x.data(), nullptr));
}

TEST(CheckpointTest, ServerSaveLoadRoundTrip) {
  HeteroServer::Options opt;
  opt.widths = {4, 8, 16};
  opt.num_items = 25;
  opt.seed = 5;
  HeteroServer server(opt);

  std::string path = TempPath("server_ckpt.bin");
  ASSERT_TRUE(SaveServerCheckpoint(path, server, "lightgcn").ok());
  auto ckpt = LoadServerCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->base_model_name, "lightgcn");
  ASSERT_EQ(ckpt->tables.size(), 3u);
  ASSERT_EQ(ckpt->thetas.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(ckpt->tables[s].SameShape(server.table(s)));
    for (size_t i = 0; i < ckpt->tables[s].data().size(); ++i) {
      EXPECT_EQ(ckpt->tables[s].data()[i], server.table(s).data()[i]);
    }
    EXPECT_EQ(ckpt->thetas[s].ParamCount(), server.theta(s).ParamCount());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadMissingFileFails) {
  auto r = LoadServerCheckpoint(TempPath("no_such_ckpt.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, LoadForeignFileFails) {
  std::string path = TempPath("foreign.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all, not even close";
  }
  auto r = LoadServerCheckpoint(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedServerCheckpointFails) {
  HeteroServer::Options opt;
  opt.widths = {4};
  opt.num_items = 10;
  opt.seed = 7;
  HeteroServer server(opt);
  std::string path = TempPath("trunc_ckpt.bin");
  ASSERT_TRUE(SaveServerCheckpoint(path, server, "ncf").ok());
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(LoadServerCheckpoint(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetefedrec
