/**
 * @file
 * Tests for the application layer: wire protocol + cache codec,
 * the Redis-like command store (all commands, lock semantics, crash
 * recovery), and the workload generators' statistical properties
 * (including the TPCC lock-request fraction the paper reports).
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/command_store.h"
#include "apps/workloads.h"

namespace pmnet::apps {
namespace {

// ----------------------------------------------------------- protocol

TEST(Protocol, CommandRoundTrip)
{
    Command cmd{{"SET", "key:1", std::string(200, 'v')}};
    auto decoded = decodeCommand(encodeCommand(cmd));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->args, cmd.args);
}

TEST(Protocol, DecodeRejectsGarbage)
{
    EXPECT_FALSE(decodeCommand(Bytes{}).has_value());
    EXPECT_FALSE(decodeCommand(Bytes{0, 0}).has_value()); // argc == 0
    EXPECT_FALSE(decodeCommand(Bytes{5, 0, 1}).has_value());
}

TEST(Protocol, Classification)
{
    EXPECT_EQ(classifyCommand("SET"), CommandClass::Update);
    EXPECT_EQ(classifyCommand("LPUSH"), CommandClass::Update);
    EXPECT_EQ(classifyCommand("INCRBY"), CommandClass::Update);
    EXPECT_EQ(classifyCommand("GET"), CommandClass::Read);
    EXPECT_EQ(classifyCommand("LRANGE"), CommandClass::Read);
    EXPECT_EQ(classifyCommand("LOCK"), CommandClass::Sync);
    EXPECT_EQ(classifyCommand("UNLOCK"), CommandClass::Sync);
    EXPECT_TRUE(commandIsUpdate(Command{{"DEL", "x"}}));
    EXPECT_FALSE(commandIsUpdate(Command{{"GET", "x"}}));
}

TEST(Protocol, ResponseRoundTrips)
{
    auto generic = decodeResponse(encodeResponse(RespStatus::Nil, "v"));
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->status, RespStatus::Nil);
    EXPECT_EQ(generic->value, "v");
    EXPECT_TRUE(generic->key.empty());

    auto get = decodeResponse(
        encodeGetResponse(RespStatus::Ok, "k", "value"));
    ASSERT_TRUE(get.has_value());
    EXPECT_EQ(get->key, "k");
    EXPECT_EQ(get->value, "value");
}

TEST(Protocol, EncodersReserveTheirExactSize)
{
    // One allocation per message (libstdc++'s reserve() allocates
    // exactly what it is asked for): a formula that came out short
    // would regrow the buffer past its size, one that came out long
    // would leave spare capacity.
    Bytes command = encodeCommand(Command{{"SET", "key:1", "value"}});
    EXPECT_EQ(command.size(), 2u + (4 + 3) + (4 + 5) + (4 + 5));
    EXPECT_EQ(command.capacity(), command.size());
    Bytes generic = encodeResponse(RespStatus::Ok, std::string(100, 'v'));
    EXPECT_EQ(generic.capacity(), generic.size());
    Bytes get = encodeGetResponse(RespStatus::Ok, "key:1", "value");
    EXPECT_EQ(get.capacity(), get.size());
}

TEST(Codec, ParsesSetAndGetOnly)
{
    KvCacheCodec codec;
    // Parsed results are views into the payload, which must outlive
    // them.
    Bytes set_payload = encodeCommand(Command{{"SET", "k", "v"}});
    auto set = codec.parseUpdate(set_payload);
    ASSERT_TRUE(set.has_value());
    EXPECT_EQ(set->key.view(), "k");
    EXPECT_EQ(set->key.hash(), hashKey("k", 1));
    EXPECT_EQ(set->value, "v");

    EXPECT_FALSE(codec.parseUpdate(
                         encodeCommand(Command{{"LPUSH", "k", "v"}}))
                     .has_value())
        << "only plain SETs are cacheable";
    EXPECT_FALSE(codec.parseUpdate(Bytes{1, 2, 3}).has_value());

    Bytes get_payload = encodeCommand(Command{{"GET", "k"}});
    auto get = codec.parseRead(get_payload);
    ASSERT_TRUE(get.has_value());
    EXPECT_EQ(get->view(), "k");
    EXPECT_FALSE(codec.parseRead(
                         encodeCommand(Command{{"LRANGE", "k", "0", "9"}}))
                     .has_value());
}

TEST(Codec, ResponseSymmetry)
{
    // A switch-built response must decode exactly like a server one.
    KvCacheCodec codec;
    Bytes from_switch = codec.makeReadResponse("k", Bytes{'x', 'y'});
    auto parsed = codec.parseReadResponse(from_switch);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->key.view(), "k");
    EXPECT_EQ(parsed->value, "xy");

    // Nil responses must not populate the cache.
    EXPECT_FALSE(codec.parseReadResponse(
                         encodeGetResponse(RespStatus::Nil, "k", ""))
                     .has_value());
}

// ------------------------------------------------------ command store

class CommandStoreTest : public ::testing::Test
{
  protected:
    CommandStoreTest() : heap(64ull << 20), store(heap, kv::KvKind::Hashmap)
    {
    }

    CommandStore::Result
    run(std::initializer_list<std::string> args,
        std::uint16_t session = 1)
    {
        return store.execute(Command{args}, session);
    }

    pm::PmHeap heap;
    CommandStore store;
};

TEST_F(CommandStoreTest, SetGetDel)
{
    EXPECT_EQ(run({"SET", "a", "1"}).status, RespStatus::Ok);
    auto got = run({"GET", "a"});
    EXPECT_EQ(got.status, RespStatus::Ok);
    EXPECT_EQ(got.value, "1");
    EXPECT_EQ(got.cacheKey, "a") << "GETs must be cache-taggable";
    EXPECT_EQ(run({"DEL", "a"}).value, "1");
    EXPECT_EQ(run({"GET", "a"}).status, RespStatus::Nil);
    EXPECT_EQ(run({"DEL", "a"}).value, "0");
}

TEST_F(CommandStoreTest, ExistsAndIncr)
{
    EXPECT_EQ(run({"EXISTS", "n"}).value, "0");
    EXPECT_EQ(run({"INCR", "n"}).value, "1");
    EXPECT_EQ(run({"INCR", "n"}).value, "2");
    EXPECT_EQ(run({"INCRBY", "n", "40"}).value, "42");
    EXPECT_EQ(run({"INCRBY", "n", "-2"}).value, "40");
    EXPECT_EQ(run({"EXISTS", "n"}).value, "1");
}

TEST_F(CommandStoreTest, ListOperations)
{
    EXPECT_EQ(run({"RPUSH", "l", "a"}).value, "1");
    EXPECT_EQ(run({"RPUSH", "l", "b"}).value, "2");
    EXPECT_EQ(run({"LPUSH", "l", "z"}).value, "3");
    EXPECT_EQ(run({"LLEN", "l"}).value, "3");
    EXPECT_EQ(run({"LRANGE", "l", "0", "-1"}).value, "z\na\nb");
    EXPECT_EQ(run({"LRANGE", "l", "0", "1"}).value, "z\na");
    EXPECT_EQ(run({"LPOP", "l"}).value, "z");
    EXPECT_EQ(run({"LLEN", "l"}).value, "2");
}

TEST_F(CommandStoreTest, ListCapTrims)
{
    for (int i = 0; i < 200; i++)
        run({"LPUSH", "timeline", "p" + std::to_string(i)});
    EXPECT_EQ(run({"LLEN", "timeline"}).value,
              std::to_string(CommandStore::kListCap));
    // Most recent element first.
    EXPECT_EQ(run({"LRANGE", "timeline", "0", "0"}).value, "p199");
}

TEST_F(CommandStoreTest, SetOperations)
{
    EXPECT_EQ(run({"SADD", "s", "x"}).value, "1");
    EXPECT_EQ(run({"SADD", "s", "x"}).value, "0") << "no duplicates";
    EXPECT_EQ(run({"SADD", "s", "y"}).value, "1");
    EXPECT_EQ(run({"SCARD", "s"}).value, "2");
    EXPECT_EQ(run({"SISMEMBER", "s", "x"}).value, "1");
    EXPECT_EQ(run({"SREM", "s", "x"}).value, "1");
    EXPECT_EQ(run({"SISMEMBER", "s", "x"}).value, "0");
}

TEST_F(CommandStoreTest, HashOperations)
{
    EXPECT_EQ(run({"HSET", "h", "f1", "v1"}).value, "1");
    EXPECT_EQ(run({"HSET", "h", "f1", "v2"}).value, "0");
    EXPECT_EQ(run({"HGET", "h", "f1"}).value, "v2");
    EXPECT_EQ(run({"HGET", "h", "nope"}).status, RespStatus::Nil);
    EXPECT_EQ(run({"HDEL", "h", "f1"}).value, "1");
    EXPECT_EQ(run({"HGET", "h", "f1"}).status, RespStatus::Nil);
}

TEST_F(CommandStoreTest, TypeMismatchErrors)
{
    run({"LPUSH", "l", "x"});
    EXPECT_EQ(run({"GET", "l"}).status, RespStatus::Error);
    EXPECT_EQ(run({"INCR", "l"}).status, RespStatus::Error);
    run({"SET", "s", "v"});
    EXPECT_EQ(run({"LPUSH", "s", "x"}).status, RespStatus::Error);
    EXPECT_EQ(run({"SADD", "s", "x"}).status, RespStatus::Error);
}

TEST_F(CommandStoreTest, UnknownAndMalformed)
{
    EXPECT_EQ(run({"BOGUS"}).status, RespStatus::Error);
    EXPECT_EQ(run({"SET", "only-key"}).status, RespStatus::Error);
    EXPECT_EQ(store.execute(Command{{}}, 1).status, RespStatus::Error);
}

TEST_F(CommandStoreTest, LockSemantics)
{
    EXPECT_EQ(run({"LOCK", "d1"}, 1).status, RespStatus::Ok);
    EXPECT_EQ(run({"LOCK", "d1"}, 2).status, RespStatus::Locked)
        << "another session is blocked (Fig 5)";
    EXPECT_EQ(run({"LOCK", "d1"}, 1).status, RespStatus::Ok)
        << "re-acquisition by the owner is idempotent";
    EXPECT_EQ(run({"UNLOCK", "d1"}, 2).status, RespStatus::Locked)
        << "only the owner may release";
    EXPECT_EQ(run({"UNLOCK", "d1"}, 1).status, RespStatus::Ok);
    EXPECT_EQ(run({"LOCK", "d1"}, 2).status, RespStatus::Ok)
        << "released lock is acquirable";
    EXPECT_EQ(run({"UNLOCK", "d1"}, 2).status, RespStatus::Ok);
    EXPECT_EQ(run({"UNLOCK", "d1"}, 2).status, RespStatus::Ok)
        << "double release is idempotent (lost-reply retry)";
}

TEST_F(CommandStoreTest, SurvivesCrashAndReopen)
{
    run({"SET", "k", "v"});
    run({"LPUSH", "l", "a"});
    run({"SADD", "s", "m"});
    run({"LOCK", "crit"}, 7);
    pm::PmOffset root = store.persistentRoot();

    heap.crash();
    CommandStore recovered(heap, root);
    EXPECT_EQ(recovered.execute(Command{{"GET", "k"}}, 1).value, "v");
    EXPECT_EQ(recovered.execute(Command{{"LLEN", "l"}}, 1).value, "1");
    EXPECT_EQ(recovered.execute(Command{{"SISMEMBER", "s", "m"}}, 1)
                  .value,
              "1");
    EXPECT_EQ(recovered.execute(Command{{"LOCK", "crit"}}, 8).status,
              RespStatus::Locked)
        << "lock state is persistent";
}

TEST_F(CommandStoreTest, GetValueMatchesCodecCachedValue)
{
    // Consistency requirement: a GET served by the server must be
    // byte-identical to one served by the switch cache.
    KvCacheCodec codec;
    Bytes set_payload = encodeCommand(Command{{"SET", "k", "hello"}});
    auto parsed = codec.parseUpdate(set_payload);
    ASSERT_TRUE(parsed.has_value());

    store.execute(Command{{"SET", "k", "hello"}}, 1);
    Bytes server_resp =
        store.executeToResponse(Command{{"GET", "k"}}, 1);
    Bytes switch_resp = codec.makeReadResponse(
        parsed->key.view(),
        Bytes(parsed->value.begin(), parsed->value.end()));
    EXPECT_EQ(server_resp, switch_resp);
}

TEST_F(CommandStoreTest, WorksOverEveryBackingStructure)
{
    for (auto kind : {kv::KvKind::BTree, kv::KvKind::CTree,
                      kv::KvKind::RBTree, kv::KvKind::SkipList}) {
        pm::PmHeap local_heap(64ull << 20);
        CommandStore local(local_heap, kind);
        local.execute(Command{{"SET", "a", "1"}}, 1);
        local.execute(Command{{"INCR", "n"}}, 1);
        EXPECT_EQ(local.execute(Command{{"GET", "a"}}, 1).value, "1")
            << kv::kvKindName(kind);
        EXPECT_EQ(local.execute(Command{{"GET", "n"}}, 1).value, "1");
    }
}

// ---------------------------------------------------------- workloads

TEST(Ycsb, RespectsUpdateRatio)
{
    YcsbConfig config;
    config.updateRatio = 0.25;
    auto workload = makeYcsbWorkload(config, 1);
    Rng rng(1);
    int updates = 0, total = 0;
    for (int i = 0; i < 4000; i++) {
        for (const Command &cmd : workload->nextTransaction(rng)) {
            total++;
            updates += commandIsUpdate(cmd);
        }
    }
    EXPECT_NEAR(static_cast<double>(updates) / total, 0.25, 0.03);
}

TEST(Ycsb, PayloadSizeControlled)
{
    YcsbConfig config;
    config.updateRatio = 1.0;
    config.valueSize = 400;
    auto workload = makeYcsbWorkload(config, 1);
    Rng rng(2);
    auto txn = workload->nextTransaction(rng);
    ASSERT_EQ(txn.size(), 1u);
    EXPECT_EQ(txn[0].args[2].size(), 400u);
}

TEST(Ycsb, PopulatePreloadsKeys)
{
    pm::PmHeap heap(64ull << 20);
    CommandStore store(heap, kv::KvKind::Hashmap);
    YcsbConfig config;
    config.keyCount = 100;
    auto workload = makeYcsbWorkload(config, 0);
    Rng rng(3);
    workload->populate(store, rng);
    EXPECT_EQ(store.backing().size(), 100u);
    EXPECT_EQ(store.execute(Command{{"GET", "user42"}}, 1).status,
              RespStatus::Ok);
}

TEST(Retwis, TransactionsAreWellFormed)
{
    RetwisConfig config;
    auto workload = makeRetwisWorkload(config, 5);
    Rng rng(4);
    bool saw_post = false, saw_follow = false;
    for (int i = 0; i < 500; i++) {
        auto txn = workload->nextTransaction(rng);
        ASSERT_FALSE(txn.empty());
        if (txn[0].verb() == "SET")
            saw_post = true;
        if (txn[0].verb() == "SADD")
            saw_follow = true;
        for (const Command &cmd : txn)
            EXPECT_NE(classifyCommand(cmd.verb()), CommandClass::Sync)
                << "retwis is lock-free (Section III-C)";
    }
    EXPECT_TRUE(saw_post);
    EXPECT_TRUE(saw_follow);
}

TEST(Retwis, ReadRatioProducesTimelineReads)
{
    RetwisConfig config;
    config.updateRatio = 0.5;
    auto workload = makeRetwisWorkload(config, 5);
    Rng rng(5);
    int reads = 0;
    for (int i = 0; i < 1000; i++) {
        auto txn = workload->nextTransaction(rng);
        if (txn.size() == 1 && txn[0].verb() == "LRANGE")
            reads++;
    }
    EXPECT_NEAR(reads / 1000.0, 0.5, 0.05);
}

TEST(Tpcc, LockFractionNearPaper)
{
    // Paper Section III-C: 13.7% of TPCC requests access the locking
    // primitive. Our simplified mix should land near that.
    TpccConfig config;
    auto workload = makeTpccWorkload(config, 3);
    Rng rng(6);
    int lock_ops = 0, total = 0;
    for (int i = 0; i < 2000; i++) {
        for (const Command &cmd : workload->nextTransaction(rng)) {
            total++;
            lock_ops +=
                classifyCommand(cmd.verb()) == CommandClass::Sync;
        }
    }
    double fraction = static_cast<double>(lock_ops) / total;
    EXPECT_NEAR(fraction, 0.137, 0.04);
}

TEST(Tpcc, CriticalSectionShape)
{
    TpccConfig config;
    config.updateRatio = 1.0;
    auto workload = makeTpccWorkload(config, 3);
    Rng rng(7);
    for (int i = 0; i < 100; i++) {
        auto txn = workload->nextTransaction(rng);
        ASSERT_GE(txn.size(), 4u);
        EXPECT_EQ(txn.front().verb(), "LOCK");
        EXPECT_EQ(txn.back().verb(), "UNLOCK");
        EXPECT_EQ(txn.front().args[1], txn.back().args[1])
            << "lock and unlock must target the same resource";
    }
}

TEST(Tpcc, TransactionsExecuteCleanly)
{
    pm::PmHeap heap(64ull << 20);
    CommandStore store(heap, kv::KvKind::Hashmap);
    TpccConfig config;
    auto workload = makeTpccWorkload(config, 3);
    Rng rng(8);
    workload->populate(store, rng);
    for (int i = 0; i < 200; i++) {
        for (const Command &cmd : workload->nextTransaction(rng)) {
            auto result = store.execute(cmd, 3);
            EXPECT_NE(result.status, RespStatus::Error)
                << cmd.verb() << " failed";
        }
    }
}

} // namespace
} // namespace pmnet::apps
