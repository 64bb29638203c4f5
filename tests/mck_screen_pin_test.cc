// Pins the exploration behaviour of every screening configuration: the
// CombinedModel at N = 1..4 UEs under all 16 combinations of its fix and
// switch-back flags, and the S1-S4 slices with and without their §8
// remedies, each explored fully, with POR, with symmetry and with both. Per
// exploration the test digests the DeterministicView, the violated
// property set and every counterexample's describe() lines, and compares
// the digest against a recorded constant. Hashing, successor generation and
// interning may change how fast a search runs, never what it finds.
//
// A second test checks that no two distinct reachable states of any
// screening model share a 64-bit HashBytes value, and that HashBytes is the
// hash the models give the explorer.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mck/explorer.h"
#include "mck/hash.h"
#include "model/combined_model.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"

namespace cnv::mck {
namespace {

constexpr int kModes = 4;
const char* const kModeName[kModes] = {"full", "por", "sym", "por_sym"};

ReductionOptions Mode(int m) {
  ReductionOptions r;
  r.por = (m & 1) != 0;
  r.symmetry = (m & 2) != 0;
  return r;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct ScreenConfig {
  std::string name;
  // Digest of one exploration under the given reduction mode.
  std::function<std::uint64_t(const ReductionOptions&)> digest;
  // Checks HashBytes over every state the full exploration reaches.
  std::function<void()> check_hashes;
};

template <typename M>
ScreenConfig MakeConfig(std::string name, M model) {
  ScreenConfig c;
  c.name = std::move(name);
  c.digest = [model](const ReductionOptions& red) {
    ExploreOptions opt;
    opt.reduction = red;
    const auto r = Explore(model, model.Properties(), opt);
    std::string text = ToString(DeterministicView(r.stats)) + "\n";
    std::set<std::string> violated;
    for (const auto& v : r.violations) violated.insert(v.property);
    for (const auto& p : violated) text += "violated " + p + "\n";
    for (const auto& v : r.violations) {
      text += "counterexample " + v.property + "\n";
      for (const auto& a : v.trace) text += "  " + model.describe(a) + "\n";
    }
    return Fnv1a(text);
  };
  c.check_hashes = [model, n = c.name] {
    using State = typename M::State;
    // Every newly interned state is checked against every property once, so
    // a never-failing property sees each reachable state exactly once.
    std::vector<State> reached;
    const PropertySet<State> collect = {
        {"collect",
         [&reached](const State& s) {
           reached.push_back(s);
           return true;
         },
         ""}};
    const auto r = Explore(model, collect);
    ASSERT_FALSE(r.stats.truncated) << n;
    ASSERT_EQ(reached.size(), r.stats.states_visited) << n;
    std::unordered_map<std::uint64_t, std::size_t> by_hash;
    for (std::size_t i = 0; i < reached.size(); ++i) {
      const std::uint64_t h = HashBytes(reached[i]);
      EXPECT_EQ(HashValue(reached[i]), h) << n;
      const auto [it, inserted] = by_hash.emplace(h, i);
      EXPECT_TRUE(inserted || reached[it->second] == reached[i])
          << n << ": states " << it->second << " and " << i
          << " share hash " << h;
    }
  };
  return c;
}

// The configuration set of the screening sweep (perfbench's `screen`).
std::vector<ScreenConfig> ScreenConfigs() {
  std::vector<ScreenConfig> out;
  for (int ues = 1; ues <= 4; ++ues) {
    for (int flags = 0; flags < 16; ++flags) {
      model::CombinedModel::Config c;
      c.ues = ues;
      c.fix_keep_context = (flags & 1) != 0;
      c.fix_reactivate_bearer = (flags & 2) != 0;
      c.fix_queue_call = (flags & 4) != 0;
      c.switch_back = (flags & 8) == 0;
      out.push_back(MakeConfig("combined/n" + std::to_string(ues) + "/f" +
                                   std::to_string(flags),
                               model::CombinedModel(c)));
    }
  }
  for (const bool fix : {false, true}) {
    const std::string suffix = fix ? "/remedied" : "";
    model::S1Model::Config s1;
    s1.fix_keep_context = s1.fix_reactivate_bearer = fix;
    out.push_back(MakeConfig("s1" + suffix, model::S1Model(s1)));
    model::S2Model::Config s2;
    s2.reliable_shim = fix;
    out.push_back(MakeConfig("s2" + suffix, model::S2Model(s2)));
    for (const auto policy : {model::SwitchPolicy::kCellReselection,
                              model::SwitchPolicy::kReleaseWithRedirect}) {
      model::S3Model::Config s3;
      s3.policy = policy;
      s3.fix_csfb_tag = fix;
      out.push_back(MakeConfig("s3/" + model::ToString(policy) + suffix,
                               model::S3Model(s3)));
    }
    model::S4Model::Config s4;
    s4.decoupled = fix;
    out.push_back(MakeConfig("s4" + suffix, model::S4Model(s4)));
  }
  return out;
}

using Digests = std::array<std::uint64_t, kModes>;

// Recorded from the explorer before states were hashed as bytes and
// successors generated into reused buffers; modes in kModeName order.
const std::map<std::string, Digests>& Pinned() {
  static const std::map<std::string, Digests> pinned = {
      {"combined/n1/f0",
       {0xc2daf5d134c00b05ULL, 0xc2daf5d134c00b05ULL, 0xc2daf5d134c00b05ULL,
        0xc2daf5d134c00b05ULL}},
      {"combined/n1/f1",
       {0x24f29005d534acafULL, 0x24f29005d534acafULL, 0x24f29005d534acafULL,
        0x24f29005d534acafULL}},
      {"combined/n1/f2",
       {0xfe98ee29717d31a8ULL, 0xfe98ee29717d31a8ULL, 0xfe98ee29717d31a8ULL,
        0xfe98ee29717d31a8ULL}},
      {"combined/n1/f3",
       {0x9cac88b12e73360fULL, 0x9cac88b12e73360fULL, 0x9cac88b12e73360fULL,
        0x9cac88b12e73360fULL}},
      {"combined/n1/f4",
       {0xc2daf5d134c00b05ULL, 0xc2daf5d134c00b05ULL, 0xc2daf5d134c00b05ULL,
        0xc2daf5d134c00b05ULL}},
      {"combined/n1/f5",
       {0x24f29005d534acafULL, 0x24f29005d534acafULL, 0x24f29005d534acafULL,
        0x24f29005d534acafULL}},
      {"combined/n1/f6",
       {0xfe98ee29717d31a8ULL, 0xfe98ee29717d31a8ULL, 0xfe98ee29717d31a8ULL,
        0xfe98ee29717d31a8ULL}},
      {"combined/n1/f7",
       {0x9cac88b12e73360fULL, 0x9cac88b12e73360fULL, 0x9cac88b12e73360fULL,
        0x9cac88b12e73360fULL}},
      {"combined/n1/f8",
       {0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL,
        0x8afd0f93b7c2a2c1ULL}},
      {"combined/n1/f9",
       {0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL,
        0x5923763b1ea58e12ULL}},
      {"combined/n1/f10",
       {0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL,
        0x8afd0f93b7c2a2c1ULL}},
      {"combined/n1/f11",
       {0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL,
        0x5923763b1ea58e12ULL}},
      {"combined/n1/f12",
       {0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL,
        0x8afd0f93b7c2a2c1ULL}},
      {"combined/n1/f13",
       {0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL,
        0x5923763b1ea58e12ULL}},
      {"combined/n1/f14",
       {0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL, 0x8afd0f93b7c2a2c1ULL,
        0x8afd0f93b7c2a2c1ULL}},
      {"combined/n1/f15",
       {0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL, 0x5923763b1ea58e12ULL,
        0x5923763b1ea58e12ULL}},
      {"combined/n2/f0",
       {0x78af5b132fc21268ULL, 0xa04c644e4e9da039ULL, 0x1d6d21114ff170e7ULL,
        0x0eb8dab637951cceULL}},
      {"combined/n2/f1",
       {0x28a000d6f4db4dd5ULL, 0x21d5a2effb77038aULL, 0x68e26ec483f02051ULL,
        0x63fdd07c89deb249ULL}},
      {"combined/n2/f2",
       {0x01872433a8355aa4ULL, 0xb16099ebc24b1326ULL, 0x69fb33c0028afb61ULL,
        0x3b3900ae62419d97ULL}},
      {"combined/n2/f3",
       {0xb302eff72fe27279ULL, 0xd47d9bb45a72a7cdULL, 0x3aacf8845e38889bULL,
        0xa078580201adb3b7ULL}},
      {"combined/n2/f4",
       {0x1c5f456ea1104a41ULL, 0x61e9912453ae4a07ULL, 0x69d4724471fe24ceULL,
        0x39f33960776648a0ULL}},
      {"combined/n2/f5",
       {0x0056f1c887844af1ULL, 0xd96f9344c5f05adbULL, 0xe06509b0ee346b2fULL,
        0xd4fa5c7d4b3cd49eULL}},
      {"combined/n2/f6",
       {0x55796367ea34f014ULL, 0x2c05d89ba742bbc8ULL, 0x1560e11ef57e8b9cULL,
        0xea3874695bb89c37ULL}},
      {"combined/n2/f7",
       {0x630ffb5bf2c0f5a1ULL, 0x353906d4d85be5eaULL, 0xf4b3b03959215c44ULL,
        0x06f921888b37e643ULL}},
      {"combined/n2/f8",
       {0x1bcc4f76d10e043dULL, 0x04af124b6791b7a2ULL, 0x4f5297f093660894ULL,
        0x320edda995350dfaULL}},
      {"combined/n2/f9",
       {0x39b1a838e648d8e1ULL, 0xc8a9cabe59dc3034ULL, 0xab9b471fdfaae2a4ULL,
        0xeea93b3e49248427ULL}},
      {"combined/n2/f10",
       {0x1bcc4f76d10e043dULL, 0x04af124b6791b7a2ULL, 0x4f5297f093660894ULL,
        0x320edda995350dfaULL}},
      {"combined/n2/f11",
       {0x39b1a838e648d8e1ULL, 0xc8a9cabe59dc3034ULL, 0xab9b471fdfaae2a4ULL,
        0xeea93b3e49248427ULL}},
      {"combined/n2/f12",
       {0x769e19ebc63a96b1ULL, 0x03b0a3459bbac02dULL, 0xf7ffcda2e4100a4eULL,
        0xd837a4f7c12aad57ULL}},
      {"combined/n2/f13",
       {0x3d40625408c9dca7ULL, 0x1cf4ef6d4ab8ace3ULL, 0x3430e68ce9e82390ULL,
        0x710d9d4ff4088f3eULL}},
      {"combined/n2/f14",
       {0x769e19ebc63a96b1ULL, 0x03b0a3459bbac02dULL, 0xf7ffcda2e4100a4eULL,
        0xd837a4f7c12aad57ULL}},
      {"combined/n2/f15",
       {0x3d40625408c9dca7ULL, 0x1cf4ef6d4ab8ace3ULL, 0x3430e68ce9e82390ULL,
        0x710d9d4ff4088f3eULL}},
      {"combined/n3/f0",
       {0x3ab52d77396b7563ULL, 0x5a00617cab976b03ULL, 0x79fd4ae76e6a4a28ULL,
        0xfb2ea57ef66048f8ULL}},
      {"combined/n3/f1",
       {0x14897a90ba1ff82aULL, 0xfd7759d35ad96ea6ULL, 0xc63dd42641cc3d83ULL,
        0xec77332d3caeb870ULL}},
      {"combined/n3/f2",
       {0xef0b33ad910a67b7ULL, 0x0ef8e0e759f3dae9ULL, 0x1539466ecdb85224ULL,
        0xbf4815ed86534ff6ULL}},
      {"combined/n3/f3",
       {0xc33854caa854c87dULL, 0xc60a77c7094f2b0cULL, 0xb5b90c98ee21485aULL,
        0x14f932773047f2b3ULL}},
      {"combined/n3/f4",
       {0x33d6fb1569bf1ae0ULL, 0xb42b6218303ddd2eULL, 0x58c4ba7ac00a6df6ULL,
        0xf99f3f0303c2db86ULL}},
      {"combined/n3/f5",
       {0xc16a914a63492a6fULL, 0x131ab1db1212fcc2ULL, 0xce4af8cad2608bf4ULL,
        0xe635d54a3c997524ULL}},
      {"combined/n3/f6",
       {0x679fda7689c1696dULL, 0xe3e87d4bfdf8a07bULL, 0xf23fb9c342f1e180ULL,
        0xa9e5985cdac3aeeaULL}},
      {"combined/n3/f7",
       {0xc7c0c0f7eed17bf0ULL, 0x2649b36ffc258b84ULL, 0x81c077bfe381cff8ULL,
        0xd6e030c2bdacdb13ULL}},
      {"combined/n3/f8",
       {0x5e1f6923d728bc4bULL, 0xe9c85e20c65c79baULL, 0xfdd6cc6fda4e0481ULL,
        0x96c1d0476b29b69eULL}},
      {"combined/n3/f9",
       {0x220392dfa2a93818ULL, 0xe85f1b375dcab174ULL, 0x67c422cd4c39ee79ULL,
        0x8c20041d504ca2d3ULL}},
      {"combined/n3/f10",
       {0x5e1f6923d728bc4bULL, 0xe9c85e20c65c79baULL, 0xfdd6cc6fda4e0481ULL,
        0x96c1d0476b29b69eULL}},
      {"combined/n3/f11",
       {0x220392dfa2a93818ULL, 0xe85f1b375dcab174ULL, 0x67c422cd4c39ee79ULL,
        0x8c20041d504ca2d3ULL}},
      {"combined/n3/f12",
       {0xe153f53b049173feULL, 0xc8f0b4a680e7a185ULL, 0xa43bff2c85b07348ULL,
        0xbd20e651b1cfc45eULL}},
      {"combined/n3/f13",
       {0xb98477b23ab33b71ULL, 0x035efb6b4151f7f7ULL, 0xb6ad6b582ca0d31cULL,
        0x4bbff002612c1b25ULL}},
      {"combined/n3/f14",
       {0xe153f53b049173feULL, 0xc8f0b4a680e7a185ULL, 0xa43bff2c85b07348ULL,
        0xbd20e651b1cfc45eULL}},
      {"combined/n3/f15",
       {0xb98477b23ab33b71ULL, 0x035efb6b4151f7f7ULL, 0xb6ad6b582ca0d31cULL,
        0x4bbff002612c1b25ULL}},
      {"combined/n4/f0",
       {0x66b01dc28ca488a0ULL, 0xbd71ff38b54c6755ULL, 0xa597cc6a8079eb81ULL,
        0xcd248ac9286a1b7bULL}},
      {"combined/n4/f1",
       {0x1ab0267714c46c54ULL, 0x537ff92dc350d8e6ULL, 0x1b19668714c2e932ULL,
        0x20a6b81a3329a26eULL}},
      {"combined/n4/f2",
       {0x6aff7c23f52369caULL, 0x31206b5a52731ebeULL, 0x620079fa23b4fecbULL,
        0x808f826343dc6287ULL}},
      {"combined/n4/f3",
       {0x311a6809bee4ebfbULL, 0xb4cf03ca8de0d769ULL, 0xbb92f40d2d71adb0ULL,
        0xe96b9063e0ef04dcULL}},
      {"combined/n4/f4",
       {0x826dab07294eb3c2ULL, 0xb3db8ab98dc39e89ULL, 0x66e4044b82fc3641ULL,
        0xb6a35dfdc867995aULL}},
      {"combined/n4/f5",
       {0x137dfb6eeae5c617ULL, 0x65d0c923ec94cb0bULL, 0x363b831159bdd5b9ULL,
        0x5356836dc6be2fb4ULL}},
      {"combined/n4/f6",
       {0x6485fc15d8c80928ULL, 0x3503ff6dff509b1eULL, 0xf780e92cded5b35fULL,
        0xdeeec853313e2070ULL}},
      {"combined/n4/f7",
       {0xc9d2e0fa88c88213ULL, 0xef2a84f8a4f80d4dULL, 0x4cf75d95efd99f59ULL,
        0xfdc5e3b2174e5029ULL}},
      {"combined/n4/f8",
       {0x5375d4c390ef142cULL, 0x1c83385a4279c5e9ULL, 0x81f1e0443b49960dULL,
        0x43d94ac784ce4f85ULL}},
      {"combined/n4/f9",
       {0xf5aff067854ad24eULL, 0x7614d74a4f2a5ad9ULL, 0xef767ded894472d7ULL,
        0x1246c53d741f4e47ULL}},
      {"combined/n4/f10",
       {0x5375d4c390ef142cULL, 0x1c83385a4279c5e9ULL, 0x81f1e0443b49960dULL,
        0x43d94ac784ce4f85ULL}},
      {"combined/n4/f11",
       {0xf5aff067854ad24eULL, 0x7614d74a4f2a5ad9ULL, 0xef767ded894472d7ULL,
        0x1246c53d741f4e47ULL}},
      {"combined/n4/f12",
       {0x9c7034c96e34948bULL, 0xcacd146f98ea2c57ULL, 0x9b44cc23838d528dULL,
        0x6f90de9652c8a3f6ULL}},
      {"combined/n4/f13",
       {0xded1169dcbee9de5ULL, 0x27ae3501824d4059ULL, 0x4d2bc87e43b2a4d7ULL,
        0xd0091a7f64470266ULL}},
      {"combined/n4/f14",
       {0x9c7034c96e34948bULL, 0xcacd146f98ea2c57ULL, 0x9b44cc23838d528dULL,
        0x6f90de9652c8a3f6ULL}},
      {"combined/n4/f15",
       {0xded1169dcbee9de5ULL, 0x27ae3501824d4059ULL, 0x4d2bc87e43b2a4d7ULL,
        0xd0091a7f64470266ULL}},
      {"s1",
       {0xd29615acad6d0852ULL, 0xd29615acad6d0852ULL, 0xd29615acad6d0852ULL,
        0xd29615acad6d0852ULL}},
      {"s2",
       {0x975520800dbd0efbULL, 0x975520800dbd0efbULL, 0x975520800dbd0efbULL,
        0x975520800dbd0efbULL}},
      {"s3/inter-system cell reselection",
       {0x9bc7b6929eac0df8ULL, 0x9bc7b6929eac0df8ULL, 0x9bc7b6929eac0df8ULL,
        0x9bc7b6929eac0df8ULL}},
      {"s3/RRC connection release with redirect",
       {0x69b4a36267282b46ULL, 0x69b4a36267282b46ULL, 0x69b4a36267282b46ULL,
        0x69b4a36267282b46ULL}},
      {"s4",
       {0x8f227f5a4e7bdd05ULL, 0x8f227f5a4e7bdd05ULL, 0x8f227f5a4e7bdd05ULL,
        0x8f227f5a4e7bdd05ULL}},
      {"s1/remedied",
       {0xbf8d73b938b35f76ULL, 0xbf8d73b938b35f76ULL, 0xbf8d73b938b35f76ULL,
        0xbf8d73b938b35f76ULL}},
      {"s2/remedied",
       {0xfe98ee29717d31a8ULL, 0xfe98ee29717d31a8ULL, 0xfe98ee29717d31a8ULL,
        0xfe98ee29717d31a8ULL}},
      {"s3/inter-system cell reselection/remedied",
       {0xeff6c811a907be0eULL, 0xeff6c811a907be0eULL, 0xeff6c811a907be0eULL,
        0xeff6c811a907be0eULL}},
      {"s3/RRC connection release with redirect/remedied",
       {0xeff6c811a907be0eULL, 0xeff6c811a907be0eULL, 0xeff6c811a907be0eULL,
        0xeff6c811a907be0eULL}},
      {"s4/remedied",
       {0x815ae79dec84f8f2ULL, 0x815ae79dec84f8f2ULL, 0x815ae79dec84f8f2ULL,
        0x815ae79dec84f8f2ULL}},
  };
  return pinned;
}

std::string Row(const std::string& name, const Digests& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},",
                name.c_str(), d[0], d[1], d[2], d[3]);
  return buf;
}

TEST(ScreenPinTest, ExplorationsMatchRecordedDigests) {
  const std::vector<ScreenConfig> configs = ScreenConfigs();
  ASSERT_EQ(configs.size(), 74u);
  EXPECT_EQ(Pinned().size(), configs.size());
  for (const ScreenConfig& c : configs) {
    Digests got{};
    for (int m = 0; m < kModes; ++m) got[m] = c.digest(Mode(m));
    const auto it = Pinned().find(c.name);
    if (it == Pinned().end()) {
      ADD_FAILURE() << "no pinned digests; measured " << Row(c.name, got);
      continue;
    }
    for (int m = 0; m < kModes; ++m) {
      EXPECT_EQ(got[m], it->second[m])
          << c.name << " " << kModeName[m] << "; measured "
          << Row(c.name, got);
    }
  }
}

TEST(ScreenPinTest, ReachableStatesHaveDistinctByteHashes) {
  for (const ScreenConfig& c : ScreenConfigs()) c.check_hashes();
}

}  // namespace
}  // namespace cnv::mck
