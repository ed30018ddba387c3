/**
 * @file
 * Tests for the five persistent KV structures: uniform behaviour via
 * parameterized tests across every kind, crash-recovery properties,
 * and structure-specific invariants (B-tree shape, RB-tree coloring,
 * crit-bit key constraints).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "kv/btree.h"
#include "kv/ctree.h"
#include "kv/hashmap.h"
#include "kv/kv_store.h"
#include "kv/rbtree.h"

namespace pmnet::kv {
namespace {

Bytes
val(const std::string &text)
{
    return Bytes(text.begin(), text.end());
}

std::string
str(const Bytes &bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

class KvStoreTest : public ::testing::TestWithParam<KvKind>
{
  protected:
    KvStoreTest() : heap(64ull << 20) {}

    pm::PmHeap heap;
};

TEST_P(KvStoreTest, EmptyStore)
{
    auto store = makeKvStore(GetParam(), heap);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_FALSE(store->get(asKey("missing")).has_value());
    EXPECT_FALSE(store->erase(asKey("missing")));
}

TEST_P(KvStoreTest, PutGetSingle)
{
    auto store = makeKvStore(GetParam(), heap);
    store->put(asKey("alpha"), val("1"));
    auto got = store->get(asKey("alpha"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(str(*got), "1");
    EXPECT_EQ(store->size(), 1u);
}

TEST_P(KvStoreTest, OverwriteReplacesValue)
{
    auto store = makeKvStore(GetParam(), heap);
    store->put(asKey("k"), val("old"));
    store->put(asKey("k"), val("new-and-longer-value"));
    EXPECT_EQ(str(*store->get(asKey("k"))), "new-and-longer-value");
    EXPECT_EQ(store->size(), 1u);
}

TEST_P(KvStoreTest, EraseRemoves)
{
    auto store = makeKvStore(GetParam(), heap);
    store->put(asKey("a"), val("1"));
    store->put(asKey("b"), val("2"));
    EXPECT_TRUE(store->erase(asKey("a")));
    EXPECT_FALSE(store->get(asKey("a")).has_value());
    EXPECT_EQ(str(*store->get(asKey("b"))), "2");
    EXPECT_EQ(store->size(), 1u);
}

TEST_P(KvStoreTest, EmptyValueAllowed)
{
    auto store = makeKvStore(GetParam(), heap);
    store->put(asKey("k"), Bytes{});
    auto got = store->get(asKey("k"));
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->empty());
}

TEST_P(KvStoreTest, ManyKeysAgainstReferenceMap)
{
    auto store = makeKvStore(GetParam(), heap);
    std::map<std::string, std::string> reference;
    Rng rng(77);

    for (int i = 0; i < 2000; i++) {
        std::string key = "key" + std::to_string(rng.nextUInt(500));
        int op = static_cast<int>(rng.nextUInt(10));
        if (op < 6) {
            std::string value = "v" + std::to_string(i);
            store->put(asKey(key), val(value));
            reference[key] = value;
        } else if (op < 8) {
            bool erased = store->erase(asKey(key));
            EXPECT_EQ(erased, reference.erase(key) > 0)
                << kvKindName(GetParam()) << " key=" << key;
        } else {
            auto got = store->get(asKey(key));
            auto ref = reference.find(key);
            if (ref == reference.end()) {
                EXPECT_FALSE(got.has_value()) << key;
            } else {
                ASSERT_TRUE(got.has_value()) << key;
                EXPECT_EQ(str(*got), ref->second);
            }
        }
    }

    EXPECT_EQ(store->size(), reference.size());
    for (const auto &[key, value] : reference) {
        auto got = store->get(asKey(key));
        ASSERT_TRUE(got.has_value()) << kvKindName(GetParam()) << key;
        EXPECT_EQ(str(*got), value);
    }
}

TEST_P(KvStoreTest, ReopenAfterCleanShutdown)
{
    pm::PmOffset header;
    {
        auto store = makeKvStore(GetParam(), heap);
        header = store->headerOffset();
        for (int i = 0; i < 100; i++)
            store->put(asKey("k" + std::to_string(i)), val(std::to_string(i)));
    }
    auto reopened = openKvStore(heap, header);
    EXPECT_EQ(reopened->kind(), GetParam());
    EXPECT_EQ(reopened->size(), 100u);
    for (int i = 0; i < 100; i += 7)
        EXPECT_EQ(str(*reopened->get(asKey("k" + std::to_string(i)))),
                  std::to_string(i));
}

TEST_P(KvStoreTest, CompletedPutsSurviveCrash)
{
    auto store = makeKvStore(GetParam(), heap);
    pm::PmOffset header = store->headerOffset();
    for (int i = 0; i < 200; i++)
        store->put(asKey("k" + std::to_string(i)), val(std::to_string(i * 3)));

    heap.crash();
    auto recovered = openKvStore(heap, header);
    EXPECT_EQ(recovered->size(), 200u);
    for (int i = 0; i < 200; i++) {
        auto got = recovered->get(asKey("k" + std::to_string(i)));
        ASSERT_TRUE(got.has_value())
            << kvKindName(GetParam()) << " lost k" << i;
        EXPECT_EQ(str(*got), std::to_string(i * 3));
    }
}

TEST_P(KvStoreTest, CompletedOverwritesSurviveCrash)
{
    auto store = makeKvStore(GetParam(), heap);
    pm::PmOffset header = store->headerOffset();
    for (int i = 0; i < 50; i++)
        store->put(asKey("k" + std::to_string(i)), val("old"));
    for (int i = 0; i < 50; i++)
        store->put(asKey("k" + std::to_string(i)), val("new" + std::to_string(i)));

    heap.crash();
    auto recovered = openKvStore(heap, header);
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(str(*recovered->get(asKey("k" + std::to_string(i)))),
                  "new" + std::to_string(i));
}

TEST_P(KvStoreTest, CompletedErasesSurviveCrash)
{
    auto store = makeKvStore(GetParam(), heap);
    pm::PmOffset header = store->headerOffset();
    for (int i = 0; i < 60; i++)
        store->put(asKey("k" + std::to_string(i)), val("x"));
    for (int i = 0; i < 60; i += 2)
        store->erase(asKey("k" + std::to_string(i)));

    heap.crash();
    auto recovered = openKvStore(heap, header);
    for (int i = 0; i < 60; i++) {
        bool expect_present = (i % 2) == 1;
        EXPECT_EQ(recovered->get(asKey("k" + std::to_string(i))).has_value(),
                  expect_present)
            << kvKindName(GetParam()) << " k" << i;
    }
}

TEST_P(KvStoreTest, CrashBetweenOpsKeepsPrefix)
{
    // Property: after a crash at an arbitrary op boundary, every
    // completed put is readable — simulated by crashing repeatedly
    // while interleaving ops.
    auto store = makeKvStore(GetParam(), heap);
    pm::PmOffset header = store->headerOffset();
    std::map<std::string, std::string> reference;
    Rng rng(123);

    for (int round = 0; round < 5; round++) {
        for (int i = 0; i < 40; i++) {
            std::string key =
                "r" + std::to_string(rng.nextUInt(80));
            std::string value =
                "v" + std::to_string(round) + "_" + std::to_string(i);
            store->put(asKey(key), val(value));
            reference[key] = value;
        }
        heap.crash();
        store = openKvStore(heap, header);
        for (const auto &[key, value] : reference) {
            auto got = store->get(asKey(key));
            ASSERT_TRUE(got.has_value())
                << kvKindName(GetParam()) << " lost " << key
                << " in round " << round;
            EXPECT_EQ(str(*got), value);
        }
    }
}

TEST_P(KvStoreTest, PmCostIsAccrued)
{
    auto store = makeKvStore(GetParam(), heap);
    heap.drainCost();
    store->put(asKey("key"), val("value"));
    EXPECT_GT(heap.drainCost(), 0) << "puts must charge PM time";
    store->get(asKey("key"));
    EXPECT_GT(heap.drainCost(), 0) << "gets must charge PM time";
}

TEST_P(KvStoreTest, LargeValues)
{
    auto store = makeKvStore(GetParam(), heap);
    Bytes big(4096);
    for (std::size_t i = 0; i < big.size(); i++)
        big[i] = static_cast<std::uint8_t>(i * 31);
    store->put(asKey("big"), big);
    auto got = store->get(asKey("big"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, big);
}

TEST_P(KvStoreTest, KeysWithSharedPrefixes)
{
    auto store = makeKvStore(GetParam(), heap);
    std::vector<std::string> keys = {"a",  "ab",  "abc", "abd",
                                     "b",  "ba",  "abcd"};
    for (std::size_t i = 0; i < keys.size(); i++)
        store->put(asKey(keys[i]), val(std::to_string(i)));
    for (std::size_t i = 0; i < keys.size(); i++)
        EXPECT_EQ(str(*store->get(asKey(keys[i]))), std::to_string(i))
            << kvKindName(GetParam()) << " " << keys[i];
    EXPECT_EQ(store->size(), keys.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, KvStoreTest,
    ::testing::Values(KvKind::Hashmap, KvKind::BTree, KvKind::CTree,
                      KvKind::RBTree, KvKind::SkipList, KvKind::Blob),
    [](const ::testing::TestParamInfo<KvKind> &param_info) {
        return kvKindName(param_info.param);
    });

// -------------------------------------------------- structure-specific

/**
 * A chain walk charges each visited node's record and its whole
 * stored key, as the modeled server reads them. Two buckets hold 16
 * keys of 2 to 288 bytes in chains of 9 and 7 nodes. Each op's read
 * lines and accrued cost were recorded when the map still kept a
 * volatile chain shadow, which charged the same lines by construction.
 * A walk that skips the key read when the lengths differ charges
 * fewer.
 */
TEST(PmHashmap, DeepChainWalkChargesPinnedReadLines)
{
    pm::PmHeap heap(1 << 20);
    PmHashmap map(heap, 1u);
    std::vector<std::string> keys;
    for (int i = 0; i < 16; i++)
        keys.push_back("k" + std::to_string(i) + std::string(i * 19, '.'));
    for (std::size_t i = 0; i < keys.size(); i++)
        map.put(asKey(keys[i]), val(std::to_string(i)));

    struct Charge
    {
        std::uint64_t readLines;
        TickDelta cost;
    };
    auto charge = [&heap](auto &&op) {
        heap.drainCost();
        std::uint64_t lines = heap.counts().readLines;
        op();
        return Charge{heap.counts().readLines - lines, heap.drainCost()};
    };
    auto expectCharge = [](Charge got, Charge want, const char *what) {
        EXPECT_EQ(got.readLines, want.readLines) << what;
        EXPECT_EQ(got.cost, want.cost) << what;
    };

    const Charge gets[16] = {
        {35, 5915}, {33, 5577}, {42, 7098}, {40, 6760},
        {36, 6084}, {32, 5408}, {30, 5070}, {26, 4394},
        {29, 4901}, {25, 4225}, {19, 3211}, {13, 2197},
        {22, 3718}, {8, 1352},  {16, 2704}, {10, 1690},
    };
    for (std::size_t i = 0; i < keys.size(); i++)
        expectCharge(charge([&] { EXPECT_TRUE(map.get(asKey(keys[i]))); }),
                     gets[i], keys[i].c_str());
    expectCharge(charge([&] { EXPECT_FALSE(map.get(asKey("absent"))); }),
                 {40, 6760}, "absent");
    // keys[8] sits fifth of nine in its chain, keys[7] fourth of seven.
    expectCharge(charge([&] { map.put(asKey(keys[8]), val("new")); }),
                 {28, 6522}, "overwrite");
    expectCharge(charge([&] { EXPECT_TRUE(map.erase(asKey(keys[7]))); }),
                 {26, 5584}, "erase");
}

TEST(BTree, StaysBalancedOnInserts)
{
    pm::PmHeap heap(64ull << 20);
    PmBTree tree(heap);
    for (int i = 0; i < 2000; i++)
        tree.put(asKey("key" + std::to_string(i)), val("v"));
    EXPECT_TRUE(tree.validate(true)) << "ordering or depth violated";
    // Order-8 tree with 2000 keys: height around log_4..8(2000).
    EXPECT_LE(tree.height(), 8u);
    EXPECT_GE(tree.height(), 4u);
}

TEST(BTree, ValidAfterMixedWorkload)
{
    pm::PmHeap heap(64ull << 20);
    PmBTree tree(heap);
    Rng rng(5);
    for (int i = 0; i < 3000; i++) {
        std::string key = "k" + std::to_string(rng.nextUInt(400));
        if (rng.nextBool(0.3))
            tree.erase(asKey(key));
        else
            tree.put(asKey(key), val("v" + std::to_string(i)));
    }
    EXPECT_TRUE(tree.validate(false)) << "key ordering violated";
}

TEST(RBTree, RedRedFreeAfterInserts)
{
    pm::PmHeap heap(64ull << 20);
    PmRBTree tree(heap);
    for (int i = 0; i < 2000; i++)
        tree.put(asKey("key" + std::to_string(i)), val("v"));
    EXPECT_TRUE(tree.validate());
    // Red-black balance bound: height <= 2*log2(n+1) ~ 22.
    EXPECT_LE(tree.height(), 24u);
}

TEST(RBTree, SequentialInsertStaysLogarithmic)
{
    // The adversarial case for unbalanced BSTs.
    pm::PmHeap heap(64ull << 20);
    PmRBTree tree(heap);
    for (int i = 0; i < 1024; i++) {
        char key[16];
        std::snprintf(key, sizeof(key), "%06d", i);
        tree.put(asKey(key), val("v"));
    }
    EXPECT_LE(tree.height(), 20u);
    EXPECT_TRUE(tree.validate());
}

TEST(CTree, RejectsNulKeys)
{
    pm::PmHeap heap(1 << 20);
    PmCTree tree(heap);
    std::string bad("a\0b", 3);
    EXPECT_DEATH(
        {
            PmCTree inner(heap);
            inner.put(asKey(bad), val("x"));
        },
        "NUL");
}

TEST(CTree, PrefixKeysResolve)
{
    pm::PmHeap heap(1 << 20);
    PmCTree tree(heap);
    tree.put(asKey("abc"), val("1"));
    tree.put(asKey("abcdef"), val("2"));
    tree.put(asKey("ab"), val("3"));
    EXPECT_EQ(str(*tree.get(asKey("abc"))), "1");
    EXPECT_EQ(str(*tree.get(asKey("abcdef"))), "2");
    EXPECT_EQ(str(*tree.get(asKey("ab"))), "3");
    EXPECT_FALSE(tree.get(asKey("abcd")).has_value());
}

} // namespace
} // namespace pmnet::kv
