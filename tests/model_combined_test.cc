#include "model/combined_model.h"

#include <stdexcept>

#include "gtest/gtest.h"

namespace cnv::model {
namespace {

TEST(CombinedModelTest, ConstructorRejectsUeCountOutsideRange) {
  for (const int ues : {-1, 0, static_cast<int>(CombinedModel::kMaxUes) + 1,
                        100}) {
    CombinedModel::Config cfg;
    cfg.ues = ues;
    EXPECT_THROW(CombinedModel{cfg}, std::invalid_argument) << ues;
  }
  for (int ues = 1; ues <= static_cast<int>(CombinedModel::kMaxUes); ++ues) {
    CombinedModel::Config cfg;
    cfg.ues = ues;
    const CombinedModel m(cfg);
    std::vector<CombinedModel::Action> actions;
    m.enabled(m.initial(), actions);
    EXPECT_FALSE(actions.empty()) << ues;
  }
}

}  // namespace
}  // namespace cnv::model
