/**
 * @file
 * Tests of the application correctness metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "workloads/metrics.hh"

using namespace fidelity;

TEST(Metrics, DecodeTokensPicksArgmaxPerPosition)
{
    Tensor out(1, 3, 1, 4);
    out.at(0, 0, 0, 2) = 1.0f;
    out.at(0, 1, 0, 0) = 1.0f;
    out.at(0, 2, 0, 3) = 1.0f;
    EXPECT_EQ(decodeTokens(out), (std::vector<int>{2, 0, 3}));
}

TEST(Metrics, BleuIdenticalIsOne)
{
    std::vector<int> s = {1, 2, 3, 4, 5, 6};
    EXPECT_DOUBLE_EQ(bleuScore(s, s), 1.0);
}

TEST(Metrics, BleuDisjointIsZero)
{
    EXPECT_DOUBLE_EQ(bleuScore({1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}), 0.0);
}

TEST(Metrics, BleuSingleSubstitutionIsHighButBelowOne)
{
    std::vector<int> ref = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> hyp = ref;
    hyp[4] = 99;
    double b = bleuScore(ref, hyp);
    EXPECT_GT(b, 0.3);
    EXPECT_LT(b, 1.0);
}

TEST(Metrics, BleuMoreErrorsScoreLower)
{
    std::vector<int> ref = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<int> one = ref, three = ref;
    one[5] = 99;
    three[2] = 97;
    three[5] = 98;
    three[8] = 99;
    EXPECT_GT(bleuScore(ref, one), bleuScore(ref, three));
}

TEST(Metrics, BleuBrevityPenalty)
{
    std::vector<int> ref = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> prefix(ref.begin(), ref.begin() + 5);
    double b = bleuScore(ref, prefix);
    EXPECT_LT(b, 1.0);
    EXPECT_GT(b, 0.0);
}

TEST(Metrics, BleuEmptyHypothesis)
{
    EXPECT_DOUBLE_EQ(bleuScore({1, 2, 3}, {}), 0.0);
    EXPECT_DOUBLE_EQ(bleuScore({}, {}), 1.0);
}

TEST(Metrics, BleuShortSequencesFallBackGracefully)
{
    EXPECT_DOUBLE_EQ(bleuScore({5}, {5}), 1.0);
    EXPECT_DOUBLE_EQ(bleuScore({5}, {6}), 0.0);
}

TEST(Metrics, BleuMetricBandsDiffer)
{
    // Construct outputs whose BLEU sits between the 10% and 20% bands
    // (a single substituted token in a 20-token sequence scores about
    // 0.86).
    Tensor golden(1, 20, 1, 4);
    for (int h = 0; h < 20; ++h)
        golden.at(0, h, 0, h % 4) = 1.0f;
    Tensor faulty = golden;
    // Change one position's argmax.
    faulty.at(0, 10, 0, 10 % 4) = 0.0f;
    faulty.at(0, 10, 0, (10 + 1) % 4) = 1.0f;
    double b = bleuScore(decodeTokens(golden), decodeTokens(faulty));
    ASSERT_GT(b, 0.8);
    ASSERT_LT(b, 0.9);
    EXPECT_FALSE(bleuMetric(0.10)(golden, faulty));
    EXPECT_TRUE(bleuMetric(0.20)(golden, faulty));
}

TEST(Metrics, DetectionDecode)
{
    Tensor out(1, 2, 2, 8);
    // Cell (0, 1) detects class 2 with a box.
    out.at(0, 0, 1, 0) = 3.0f; // sigmoid(3) > 0.5
    out.at(0, 0, 1, 1) = 0.5f;
    out.at(0, 0, 1, 2) = 0.6f;
    out.at(0, 0, 1, 3) = 0.7f;
    out.at(0, 0, 1, 4) = 0.8f;
    out.at(0, 0, 1, 7) = 2.0f; // class 2 logit
    // Everything else stays below threshold (logit 0 -> 0.5).
    auto dets = decodeDetections(out);
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_EQ(dets[0].cellH, 0);
    EXPECT_EQ(dets[0].cellW, 1);
    EXPECT_EQ(dets[0].cls, 2);
    EXPECT_EQ(dets[0].x, 0.5f);
}

TEST(Metrics, DetectionScorePerfect)
{
    std::vector<Detection> d = {{0, 0, 1, 0.1f, 0.2f, 0.3f, 0.4f}};
    EXPECT_DOUBLE_EQ(detectionScore(d, d), 1.0);
}

TEST(Metrics, DetectionScoreMissAndSpurious)
{
    std::vector<Detection> ref = {{0, 0, 1, 0, 0, 0, 0},
                                  {1, 1, 2, 0, 0, 0, 0}};
    std::vector<Detection> miss = {{0, 0, 1, 0, 0, 0, 0}};
    // One of two found: recall 0.5, precision 1 -> F = 2/3.
    EXPECT_NEAR(detectionScore(ref, miss), 2.0 / 3.0, 1e-9);

    std::vector<Detection> spurious = ref;
    spurious.push_back({2, 2, 0, 0, 0, 0, 0});
    // Precision 2/3, recall 1 -> F = 0.8.
    EXPECT_NEAR(detectionScore(ref, spurious), 0.8, 1e-9);
}

TEST(Metrics, DetectionBoxToleranceMatters)
{
    std::vector<Detection> ref = {{0, 0, 1, 0.0f, 0.0f, 0.0f, 0.0f}};
    std::vector<Detection> close = {{0, 0, 1, 0.05f, 0.0f, 0.0f, 0.0f}};
    std::vector<Detection> far = {{0, 0, 1, 0.5f, 0.0f, 0.0f, 0.0f}};
    EXPECT_DOUBLE_EQ(detectionScore(ref, close), 1.0);
    EXPECT_DOUBLE_EQ(detectionScore(ref, far), 0.0);
}

TEST(Metrics, DetectionEmptyCases)
{
    std::vector<Detection> none;
    std::vector<Detection> one = {{0, 0, 0, 0, 0, 0, 0}};
    EXPECT_DOUBLE_EQ(detectionScore(none, none), 1.0);
    EXPECT_DOUBLE_EQ(detectionScore(none, one), 0.0);
    EXPECT_DOUBLE_EQ(detectionScore(one, none), 0.0);
}

TEST(Metrics, DetectionMetricBands)
{
    // Golden: three detections; faulty run loses one.
    Tensor golden(1, 2, 2, 8);
    golden.at(0, 0, 0, 0) = 3.0f;
    golden.at(0, 0, 1, 0) = 3.0f;
    golden.at(0, 1, 0, 0) = 3.0f;
    Tensor faulty = golden;
    faulty.at(0, 1, 0, 0) = -3.0f;
    // Score = F1 of 2 of 3 = 0.8 -> fails 10%, passes 20%... 0.8 is
    // exactly the 20% bound.
    EXPECT_FALSE(detectionMetric(0.10)(golden, faulty));
    EXPECT_TRUE(detectionMetric(0.20)(golden, faulty));
}

TEST(Metrics, NanAlwaysFails)
{
    Tensor golden(1, 2, 2, 8);
    golden.at(0, 0, 0, 0) = 3.0f;
    Tensor faulty = golden;
    faulty.at(0, 1, 1, 3) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(detectionMetric(0.20)(golden, faulty));
    EXPECT_FALSE(bleuMetric(0.20)(golden, faulty));
    EXPECT_TRUE(hasInvalidValues(faulty));
    EXPECT_FALSE(hasInvalidValues(golden));
}

TEST(Metrics, BleuMetricShortcutMatchesFullScore)
{
    // bleuMetric skips the n-gram tables when the decoded sequences
    // are equal; its verdict must be the full bleuScore band check's
    // on every output and tolerance, negative tolerance included.
    Tensor golden(1, 8, 1, 5);
    for (int h = 0; h < 8; ++h)
        golden.at(0, h, 0, (3 * h + 1) % 5) = 1.0f;
    Tensor changed = golden;
    changed.at(0, 4, 0, 0) = 2.0f; // one token differs
    Tensor nan = golden;
    nan.at(0, 2, 0, 1) = std::numeric_limits<float>::quiet_NaN();
    const Tensor empty;

    struct Case
    {
        const char *name;
        const Tensor &ref;
        const Tensor &out;
    };
    const Case cases[] = {{"identical", golden, golden},
                          {"one token", golden, changed},
                          {"nan", golden, nan},
                          {"empty", empty, empty}};
    for (double tol : {0.10, 0.0, -0.1}) {
        for (const Case &c : cases) {
            const bool full =
                !hasInvalidValues(c.out) &&
                bleuScore(decodeTokens(c.ref), decodeTokens(c.out)) >=
                    1.0 - tol;
            EXPECT_EQ(bleuMetric(tol)(c.ref, c.out), full)
                << c.name << " tolerance " << tol;
        }
    }
    // The cases are not vacuous: an identical decode passes at zero
    // tolerance and fails below it; one changed token fails at zero.
    EXPECT_TRUE(bleuMetric(0.0)(golden, golden));
    EXPECT_FALSE(bleuMetric(-0.1)(golden, golden));
    EXPECT_FALSE(bleuMetric(0.0)(golden, changed));
    EXPECT_FALSE(bleuMetric(0.10)(golden, nan));
}
