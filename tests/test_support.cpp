// Tests for the support substrate: PRNG, geometry, JSON writer/parser.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/support/json.hpp"
#include "src/support/point3.hpp"
#include "src/support/random.hpp"
#include "src/support/timer.hpp"

namespace rinkit {
namespace {

TEST(Rng, DeterministicForSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, Real01InRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.real01();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, Real01MeanNearHalf) {
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.real01();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, IntegerBoundRespected) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.integer(17), 17u);
    }
}

TEST(Rng, IntegerCoversAllValues) {
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.integer(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= (v == -3);
        sawHi |= (v == 3);
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
    Rng rng(13);
    double sum = 0.0, sumSq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumSq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
    Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleEmptyAndSingleton) {
    Rng rng(1);
    std::vector<int> empty;
    rng.shuffle(empty);
    EXPECT_TRUE(empty.empty());
    std::vector<int> one{42};
    rng.shuffle(one);
    EXPECT_EQ(one[0], 42);
}

TEST(Point3, Arithmetic) {
    const Point3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ(a + b, Point3(5, 7, 9));
    EXPECT_EQ(b - a, Point3(3, 3, 3));
    EXPECT_EQ(a * 2.0, Point3(2, 4, 6));
    EXPECT_EQ(2.0 * a, Point3(2, 4, 6));
    EXPECT_EQ(a / 2.0, Point3(0.5, 1, 1.5));
    EXPECT_EQ(-a, Point3(-1, -2, -3));
}

TEST(Point3, DotCrossNorm) {
    const Point3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
    EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
    EXPECT_EQ(x.cross(y), z);
    EXPECT_DOUBLE_EQ(Point3(3, 4, 0).norm(), 5.0);
    EXPECT_DOUBLE_EQ(Point3(3, 4, 0).squaredNorm(), 25.0);
}

TEST(Point3, DistanceAndNormalized) {
    EXPECT_DOUBLE_EQ(Point3(0, 0, 0).distance({0, 3, 4}), 5.0);
    const auto u = Point3(0, 0, 7).normalized();
    EXPECT_NEAR(u.norm(), 1.0, 1e-12);
    EXPECT_EQ(Point3().normalized(), Point3());
}

TEST(Aabb, ExpandAndContain) {
    Aabb box;
    EXPECT_FALSE(box.valid());
    box.expand({0, 0, 0});
    box.expand({1, 2, 3});
    EXPECT_TRUE(box.valid());
    EXPECT_TRUE(box.contains({0.5, 1.0, 1.5}));
    EXPECT_FALSE(box.contains({2.0, 0.0, 0.0}));
    EXPECT_EQ(box.extent(), Point3(1, 2, 3));
    EXPECT_EQ(box.center(), Point3(0.5, 1.0, 1.5));
}

TEST(JsonWriter, SimpleObject) {
    JsonWriter w;
    w.beginObject().kv("a", 1).kv("b", "x").kv("c", true).endObject();
    EXPECT_EQ(w.str(), R"({"a":1,"b":"x","c":true})");
}

TEST(JsonWriter, NestedStructures) {
    JsonWriter w;
    w.beginObject().key("arr").beginArray().value(1).value(2.5).null().endArray()
        .key("obj").beginObject().kv("k", false).endObject().endObject();
    EXPECT_EQ(w.str(), R"({"arr":[1,2.5,null],"obj":{"k":false}})");
}

TEST(JsonWriter, EscapesStrings) {
    JsonWriter w;
    w.beginObject().kv("s", "a\"b\\c\nd").endObject();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, NanSerializesAsNull) {
    JsonWriter w;
    w.beginArray().value(std::nan("")).endArray();
    EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriter, IncompleteDocumentThrows) {
    JsonWriter w;
    w.beginObject();
    EXPECT_THROW(w.str(), std::logic_error);
}

TEST(JsonWriter, ValueWithoutKeyInObjectThrows) {
    JsonWriter w;
    w.beginObject();
    EXPECT_THROW(w.value(1), std::logic_error);
}

TEST(JsonWriter, NumberArrayHelper) {
    JsonWriter w;
    w.numberArray({1.0, 2.0, 3.5});
    EXPECT_EQ(w.str(), "[1,2,3.5]");
}

TEST(JsonParser, RoundTrip) {
    JsonWriter w;
    w.beginObject().kv("n", 42).key("list").beginArray().value("a").value(1.5).endArray()
        .endObject();
    const auto v = JsonValue::parse(w.str());
    EXPECT_EQ(v.at("n").asNumber(), 42.0);
    EXPECT_EQ(v.at("list").at(0).asString(), "a");
    EXPECT_EQ(v.at("list").at(1).asNumber(), 1.5);
}

TEST(JsonParser, ParsesEscapesAndUnicode) {
    const auto v = JsonValue::parse(R"({"s":"a\nA"})");
    EXPECT_EQ(v.at("s").asString(), "a\nA");
}

TEST(JsonParser, RejectsMalformed) {
    EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("12 34"), std::runtime_error);
}

TEST(JsonParser, NegativeAndExponentNumbers) {
    const auto v = JsonValue::parse("[-1.5e2, 0.25, -7]");
    EXPECT_DOUBLE_EQ(v.at(0).asNumber(), -150.0);
    EXPECT_DOUBLE_EQ(v.at(1).asNumber(), 0.25);
    EXPECT_DOUBLE_EQ(v.at(2).asNumber(), -7.0);
}

TEST(Timer, MeasuresElapsedTime) {
    Timer t;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
    const double ms = t.elapsedMs();
    EXPECT_GE(ms, 0.0);
    EXPECT_GE(t.elapsedSec() * 1000.0, ms); // monotone between calls
    t.restart();
    EXPECT_LT(t.elapsedMs(), 1000.0);
}

} // namespace
} // namespace rinkit
