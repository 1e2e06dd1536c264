#include "core/id_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/op_renaming.h"
#include "sim/network.h"
#include "sim/runner.h"

namespace byzrename::core {
namespace {

using sim::Id;
using sim::Inbox;

/// Builds an inbox where links [0..count) each deliver the given payload
/// factory's message.
template <typename Factory>
Inbox inbox_from_links(int count, Factory make_payload) {
  Inbox inbox;
  for (int link = 0; link < count; ++link) inbox.push_back({link, make_payload(link)});
  return inbox;
}

// ---------------------------------------------------------------------------
// Unit-level: drive the state machine with fabricated inboxes.
// ---------------------------------------------------------------------------

TEST(IdSelectionUnit, AcceptsIdEchoedByQuorum) {
  const sim::SystemParams params{.n = 7, .t = 2};
  IdSelection sel(params, 10);

  sim::Outbox out1(false);
  sel.on_send(1, out1);
  ASSERT_EQ(out1.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::IdMsg>(*out1.entries()[0].payload).id, 10);

  // Step 1: hear ids 10..16 from 7 distinct links.
  sel.on_receive(1, inbox_from_links(7, [](int link) {
    return sim::Payload(sim::IdMsg{10 + link});
  }));

  // Step 2: this process echoes everything it heard.
  sim::Outbox out2(false);
  sel.on_send(2, out2);
  EXPECT_EQ(out2.entries().size(), 7u);

  // All 7 links echo id 10; only 3 links echo id 99 (below N-t = 5).
  Inbox echoes = inbox_from_links(7, [](int) { return sim::Payload(sim::EchoMsg{10}); });
  for (int link = 0; link < 3; ++link) echoes.push_back({link, sim::EchoMsg{99}});
  sel.on_receive(2, echoes);

  // Step 3: Ready goes out only for id 10.
  sim::Outbox out3(false);
  sel.on_send(3, out3);
  ASSERT_EQ(out3.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::ReadyMsg>(*out3.entries()[0].payload).id, 10);

  sel.on_receive(3, inbox_from_links(7, [](int) { return sim::Payload(sim::ReadyMsg{10}); }));
  EXPECT_TRUE(sel.timely().contains(10));

  sim::Outbox out4(false);
  sel.on_send(4, out4);
  sel.on_receive(4, {});
  EXPECT_TRUE(sel.accepted().contains(10));
  EXPECT_FALSE(sel.accepted().contains(99));
}

TEST(IdSelectionUnit, OneIdPerLinkInStepOne) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  // One link spams three different ids; only the first may count.
  Inbox inbox;
  inbox.push_back({0, sim::IdMsg{5}});
  inbox.push_back({0, sim::IdMsg{6}});
  inbox.push_back({0, sim::IdMsg{7}});
  sel.on_receive(1, inbox);
  sim::Outbox out(false);
  sel.on_send(2, out);
  ASSERT_EQ(out.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::EchoMsg>(*out.entries()[0].payload).id, 5);
}

TEST(IdSelectionUnit, DuplicateEchoesFromSameLinkCountOnce) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  // N-t = 3 echoes needed; two arrive from the same link.
  Inbox echoes;
  echoes.push_back({0, sim::EchoMsg{9}});
  echoes.push_back({0, sim::EchoMsg{9}});
  echoes.push_back({1, sim::EchoMsg{9}});
  sel.on_receive(2, echoes);
  sim::Outbox out(false);
  sel.on_send(3, out);
  EXPECT_TRUE(out.entries().empty());
}

TEST(IdSelectionUnit, WeakReadyQuorumTriggersStepFourAmplification) {
  const sim::SystemParams params{.n = 7, .t = 2};
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  sel.on_receive(2, {});  // nothing echoed: this process is not Ready for 42
  // Step 3: N-2t = 3 Readys arrive for id 42 — below timely (N-t = 5) but
  // enough that at least one correct process saw an echo quorum.
  sel.on_receive(3, inbox_from_links(3, [](int) { return sim::Payload(sim::ReadyMsg{42}); }));
  EXPECT_FALSE(sel.timely().contains(42));
  sim::Outbox out4(false);
  sel.on_send(4, out4);
  ASSERT_EQ(out4.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::ReadyMsg>(*out4.entries()[0].payload).id, 42);
  // Two more Readys in step 4 complete the N-t quorum: accepted.
  Inbox more;
  more.push_back({3, sim::ReadyMsg{42}});
  more.push_back({4, sim::ReadyMsg{42}});
  sel.on_receive(4, more);
  EXPECT_TRUE(sel.accepted().contains(42));
  EXPECT_FALSE(sel.timely().contains(42));
}

TEST(IdSelectionUnit, NoAmplificationBelowWeakQuorum) {
  const sim::SystemParams params{.n = 7, .t = 2};
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  sel.on_receive(2, {});
  sel.on_receive(3, inbox_from_links(2, [](int) { return sim::Payload(sim::ReadyMsg{42}); }));
  sim::Outbox out4(false);
  sel.on_send(4, out4);
  EXPECT_TRUE(out4.entries().empty());
}

TEST(IdSelectionUnit, IgnoresWrongMessageTypes) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  Inbox inbox;
  inbox.push_back({0, sim::EchoMsg{5}});               // echo during step 1
  inbox.push_back({1, sim::RanksMsg{}});               // vote during step 1
  inbox.push_back({2, sim::WordMsg{1, {1, 2, 3}}});    // consensus traffic
  sel.on_receive(1, inbox);
  sim::Outbox out(false);
  sel.on_send(2, out);
  EXPECT_TRUE(out.entries().empty());
}

TEST(IdSelectionUnit, RejectsOutOfRangeSteps) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  sim::Outbox out(false);
  EXPECT_THROW(sel.on_send(5, out), std::logic_error);
  EXPECT_THROW(sel.on_receive(0, {}), std::logic_error);
}

// ---------------------------------------------------------------------------
// Property: the tally against a brute-force distinct-link count.
// ---------------------------------------------------------------------------

/// What steps 2-4 decided: the Ready sets broadcast in steps 3 and 4
/// (the `ids` variable after steps 2 and 3), then timely and accepted.
struct SelectionOutcome {
  std::set<Id> ids_after_2;
  std::set<Id> ids_after_3;
  std::set<Id> timely;
  std::set<Id> accepted;

  friend bool operator==(const SelectionOutcome&, const SelectionOutcome&) = default;
};

std::set<Id> ready_ids(const sim::Outbox& out) {
  std::set<Id> ids;
  for (const sim::Outbox::Entry& entry : out.entries()) {
    ids.insert(std::get<sim::ReadyMsg>(*entry.payload).id);
  }
  return ids;
}

SelectionOutcome run_steps(sim::SystemParams params, const Inbox& echoes, const Inbox& ready3,
                           const Inbox& ready4) {
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  sel.on_receive(2, echoes);
  SelectionOutcome outcome;
  sim::Outbox out3(false);
  sel.on_send(3, out3);
  outcome.ids_after_2 = ready_ids(out3);
  sel.on_receive(3, ready3);
  sim::Outbox out4(false);
  sel.on_send(4, out4);
  outcome.ids_after_3 = ready_ids(out4);
  sel.on_receive(4, ready4);
  outcome.timely = sel.timely();
  outcome.accepted = sel.accepted();
  return outcome;
}

/// Adds every (id, link) pair of a @p Msg in @p inbox to @p pairs.
template <typename Msg>
void collect_pairs(const Inbox& inbox, std::set<std::pair<Id, sim::LinkIndex>>& pairs) {
  for (const sim::Delivery& d : inbox) {
    if (const auto* msg = std::get_if<Msg>(&*d.payload)) pairs.insert({msg->id, d.link});
  }
}

std::map<Id, int> links_per_id(const std::set<std::pair<Id, sim::LinkIndex>>& pairs) {
  std::map<Id, int> counts;
  for (const auto& pair : pairs) counts[pair.first] += 1;
  return counts;
}

/// The paper's steps 2-4 over explicit (id, link) sets.
SelectionOutcome reference_steps(sim::SystemParams params, const Inbox& echoes,
                                 const Inbox& ready3, const Inbox& ready4) {
  const int quorum = params.n - params.t;
  const int weak_quorum = params.n - 2 * params.t;
  SelectionOutcome outcome;
  std::set<std::pair<Id, sim::LinkIndex>> echo_pairs;
  collect_pairs<sim::EchoMsg>(echoes, echo_pairs);
  for (const auto& [id, count] : links_per_id(echo_pairs)) {
    if (count >= quorum) outcome.ids_after_2.insert(id);
  }
  std::set<std::pair<Id, sim::LinkIndex>> ready_pairs;
  collect_pairs<sim::ReadyMsg>(ready3, ready_pairs);
  for (const auto& [id, count] : links_per_id(ready_pairs)) {
    if (count >= quorum) outcome.timely.insert(id);
    if (count >= weak_quorum && !outcome.ids_after_2.contains(id)) outcome.ids_after_3.insert(id);
  }
  collect_pairs<sim::ReadyMsg>(ready4, ready_pairs);
  for (const auto& [id, count] : links_per_id(ready_pairs)) {
    if (count >= quorum) outcome.accepted.insert(id);
  }
  return outcome;
}

/// A Byzantine-shaped inbox in link order: each link sends a random
/// subset of @p pool, sometimes in descending order, sometimes with a
/// non-adjacent repeat, sometimes with a payload of another step mixed in.
template <typename Msg>
Inbox random_inbox(std::mt19937_64& gen, int n, const std::vector<Id>& pool) {
  std::bernoulli_distribution coin(0.3);
  std::bernoulli_distribution sends(0.8);
  Inbox inbox;
  for (int link = 0; link < n; ++link) {
    std::vector<Id> ids;
    for (const Id id : pool) {
      if (sends(gen)) ids.push_back(id);
    }
    if (coin(gen)) std::reverse(ids.begin(), ids.end());
    if (ids.size() > 1 && coin(gen)) ids.push_back(ids.front());
    for (const Id id : ids) inbox.push_back({link, Msg{id}});
    if (coin(gen)) inbox.push_back({link, sim::IdMsg{pool.front()}});
  }
  return inbox;
}

Inbox link_ordered(Inbox inbox) {
  std::stable_sort(inbox.begin(), inbox.end(), [](const sim::Delivery& a, const sim::Delivery& b) {
    return a.link < b.link;
  });
  return inbox;
}

TEST(IdSelectionTally, MatchesBruteForceOnRandomInboxesInEveryOrder) {
  const std::vector<Id> pool = {std::numeric_limits<Id>::min(), -7, -1, 0, 3, 8, 42,
                                std::numeric_limits<Id>::max()};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 gen(seed);
    const int t = 1 + static_cast<int>(seed % 3);
    const sim::SystemParams params{.n = 3 * t + 1 + static_cast<int>(seed % 4), .t = t};
    const Inbox echoes = random_inbox<sim::EchoMsg>(gen, params.n, pool);
    const Inbox ready3 = random_inbox<sim::ReadyMsg>(gen, params.n, pool);
    // Step 4 repeats some of step 3's Readys on the same links; each
    // (id, link) pair must still count once across both steps.
    Inbox ready4 = random_inbox<sim::ReadyMsg>(gen, params.n, pool);
    std::bernoulli_distribution repeat(0.5);
    for (const sim::Delivery& d : ready3) {
      if (repeat(gen)) ready4.push_back(d);
    }
    const SelectionOutcome want = reference_steps(params, echoes, ready3, ready4);
    accepted += want.accepted.size();
    rejected += pool.size() - want.accepted.size();
    SCOPED_TRACE("seed " + std::to_string(seed));
    // As the network delivers them: grouped by link.
    EXPECT_EQ(run_steps(params, echoes, ready3, link_ordered(ready4)), want);
    // Hand-built order: links interleaved, descending links everywhere.
    Inbox shuffled[3] = {echoes, ready3, ready4};
    for (Inbox& inbox : shuffled) std::shuffle(inbox.begin(), inbox.end(), gen);
    EXPECT_EQ(run_steps(params, shuffled[0], shuffled[1], shuffled[2]), want);
  }
  // The inboxes straddle the quorums: ids land on both sides.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Integration-level: the lemmas, measured over whole networks.
// ---------------------------------------------------------------------------

struct LemmaCase {
  int n;
  int t;
  const char* adversary;
  std::uint64_t seed;
};

class IdSelectionLemmas : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(IdSelectionLemmas, LemmasHoldUnderAdversary) {
  const LemmaCase& c = GetParam();
  ScenarioConfig config;
  config.params = {.n = c.n, .t = c.t};
  config.algorithm = Algorithm::kOpRenaming;
  config.adversary = c.adversary;
  config.seed = c.seed;

  // Capture per-process selection sets right after step 4.
  std::vector<std::set<Id>> timely_sets;
  std::vector<std::set<Id>> accepted_sets;
  config.observer = [&](sim::Round round, const sim::Network& net) {
    if (round != 4) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& op = dynamic_cast<const OpRenamingProcess&>(net.behavior(i));
      timely_sets.push_back(op.timely());
      accepted_sets.push_back(op.selection_accepted());
    }
  };
  const ScenarioResult result = run_scenario(config);
  ASSERT_FALSE(timely_sets.empty());

  // Correct ids (harness convention: correct processes are in id order).
  std::set<Id> correct_ids;
  for (const NamedProcess& p : result.named) correct_ids.insert(p.original_id);

  const int bound = c.n + (c.t * c.t) / (c.n - 2 * c.t);
  for (std::size_t p = 0; p < timely_sets.size(); ++p) {
    // Lemma IV.2: every correct id is timely everywhere.
    for (const Id id : correct_ids) {
      EXPECT_TRUE(timely_sets[p].contains(id)) << "correct id missing from timely";
    }
    // Lemma IV.3: |accepted| <= N + floor(t^2/(N-2t)).
    EXPECT_LE(static_cast<int>(accepted_sets[p].size()), bound);
    // Lemma IV.1: timely_p subseteq accepted_q for all correct p, q.
    for (std::size_t q = 0; q < accepted_sets.size(); ++q) {
      for (const Id id : timely_sets[p]) {
        EXPECT_TRUE(accepted_sets[q].contains(id))
            << "timely id " << id << " missing from another accepted set";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IdSelectionLemmas,
    ::testing::Values(LemmaCase{4, 1, "silent", 1}, LemmaCase{4, 1, "idflood", 2},
                      LemmaCase{7, 2, "idflood", 3}, LemmaCase{7, 2, "suppress", 4},
                      LemmaCase{10, 3, "idflood", 5}, LemmaCase{10, 3, "random", 6},
                      LemmaCase{13, 4, "idflood", 7}, LemmaCase{13, 4, "split", 8},
                      LemmaCase{16, 5, "idflood", 9}, LemmaCase{16, 5, "crash", 10},
                      LemmaCase{25, 8, "idflood", 11}, LemmaCase{25, 8, "suppress", 12}));

TEST(IdSelectionBound, FloodSaturatesLemmaIV3Exactly) {
  // With f == t the calibrated flood reaches |accepted| == N + t^2/(N-2t).
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{7, 2}, {10, 3}, {13, 4}, {16, 5}}) {
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "idflood";
    config.seed = 99;
    const ScenarioResult result = run_scenario(config);
    const std::size_t bound = static_cast<std::size_t>(n + (t * t) / (n - 2 * t));
    EXPECT_EQ(result.max_accepted, bound) << "n=" << n << " t=" << t;
  }
}

}  // namespace
}  // namespace byzrename::core
