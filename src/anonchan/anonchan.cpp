#include "anonchan/anonchan.hpp"

#include <algorithm>
#include <optional>

#include "common/expect.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gfor14::anonchan {

bool Output::delivered(Fld message) const {
  return std::find(y.begin(), y.end(), message) != y.end();
}

std::vector<std::size_t> Output::positions_of(Fld message) const {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < v_x.size(); ++k)
    if (v_x[k] == message) out.push_back(k);
  return out;
}

AnonChan::AnonChan(net::Network& net, vss::VssScheme& vss, Params params)
    : net_(net), vss_(vss), params_(params), strategies_(net.n()) {
  GFOR14_EXPECTS(params_.n == net.n());
  GFOR14_EXPECTS(params_.kappa_cc <= Fld::kBits);
  auto honest = std::make_shared<HonestSender>();
  for (auto& s : strategies_) s = honest;
}

void AnonChan::set_strategy(net::PartyId p,
                            std::shared_ptr<SenderStrategy> s) {
  GFOR14_EXPECTS(p < net_.n());
  strategies_[p] = std::move(s);
}

std::size_t AnonChan::expected_rounds() const {
  return vss_.share_rounds() + 5;
}

std::size_t AnonChan::expected_broadcast_rounds() const {
  return vss_.share_broadcast_rounds();
}

namespace {

/// The receiver slot of a session nobody receives privately (publication):
/// no dealer matches it, so no dealer shares g slabs.
constexpr net::PartyId kNoReceiver = static_cast<net::PartyId>(-1);

/// Collapses a one-session ManyOutput into that session's Output.
Output only_session(ManyOutput many) {
  Output out = std::move(many.sessions[0]);
  out.pass = std::move(many.pass);
  out.costs = many.costs;
  return out;
}

}  // namespace

/// What steps 1-3 leave for delivery: the committed layouts, the PASS set
/// after the sparseness proof, and the challenge that fixed it.
struct AnonChan::Proof {
  net::CostReport cost_before;
  /// layouts[s][i]: session s slabs of dealer i, with bases shifted past the
  /// dealer's pre-existing sharings and the preceding sessions' slabs.
  std::vector<std::vector<BatchLayout>> layouts;
  /// commitments[s][i]: ground truth for the collision diagnostics (the
  /// secrets themselves have moved into the sharing batches).
  std::vector<std::vector<SenderCommitment>> commitments;
  /// rho_refs[i]: dealer i's share rho^(i) of round B's batching
  /// coefficient, dealt after all of its session slabs.
  std::vector<vss::SharingRef> rho_refs;
  std::vector<bool> pass;
  Fld r;                   ///< the reconstructed joint challenge
  std::vector<bool> bits;  ///< its first kappa_cc bits
};

Output AnonChan::run(net::PartyId receiver, const std::vector<Fld>& inputs) {
  return only_session(run_many(receiver, {inputs}));
}

ManyOutput AnonChan::run_many(net::PartyId receiver,
                              const std::vector<std::vector<Fld>>& sessions) {
  return run_many_to(std::vector<net::PartyId>(sessions.size(), receiver),
                     sessions);
}

AnonChan::Proof AnonChan::prove(const std::vector<net::PartyId>& receivers,
                                const std::vector<std::vector<Fld>>& sessions) {
  const std::size_t n = net_.n();
  const std::size_t S = sessions.size();
  Proof proof;
  proof.cost_before = net_.cost_snapshot();
  net_.registry().counter("anonchan.runs").add(1);
  net_.registry().counter("anonchan.sessions").add(S);

  // --- Step 1: commitments (all sessions in one parallel sharing phase) ---
  proof.layouts.assign(S, std::vector<BatchLayout>(n));
  proof.commitments.assign(S, std::vector<SenderCommitment>(n));
  proof.rho_refs.resize(n);
  {
    trace::Span phase("commit");
    std::vector<std::vector<Fld>> batches(n);
    // Local commitment building is embarrassingly parallel across dealers:
    // party i draws only from rng_of(i) and writes only the i-indexed slots.
    net_.for_each_party([&](net::PartyId i) {
      std::size_t base = vss_.count(i);
      for (std::size_t s = 0; s < S; ++s) {
        const bool is_recv = receivers[s] == i;
        const BatchLayout zero_based = BatchLayout::make(params_, i, is_recv);
        auto& commitment = proof.commitments[s][i];
        commitment = strategies_[i]->build(params_, zero_based, sessions[s][i],
                                           net_.rng_of(i));
        GFOR14_ENSURES(commitment.secrets.size() ==
                       params_.sender_batch_size());
        std::vector<Fld> chunk = std::move(commitment.secrets);
        if (is_recv) {
          chunk.resize(params_.sender_batch_size() +
                       params_.receiver_extra_size());
          for (const vss::Slab& g_slab : zero_based.g) {
            const Permutation gp =
                identity_g_
                    ? Permutation::identity(params_.ell)
                    : Permutation::random(net_.rng_of(i), params_.ell);
            if (garbage_g_) {
              for (std::size_t k = 0; k < g_slab.size; ++k)
                chunk[g_slab.base + k] = Fld::random(net_.rng_of(i));
            } else {
              write_indices(params_, g_slab, gp.images(), chunk);
            }
          }
        }
        // Shift the layout to the dealer's global batch offsets.
        BatchLayout shifted = zero_based;
        auto shift = [base](vss::Slab& sl) { sl.base += base; };
        shift(shifted.v_x);
        shift(shifted.v_a);
        for (auto& sl : shifted.w_x) shift(sl);
        for (auto& sl : shifted.w_a) shift(sl);
        for (auto& sl : shifted.perm) shift(sl);
        for (auto& sl : shifted.idx) shift(sl);
        shift(shifted.r);
        for (auto& sl : shifted.g) shift(sl);
        proof.layouts[s][i] = std::move(shifted);
        base += chunk.size();
        batches[i].insert(batches[i].end(), chunk.begin(), chunk.end());
      }
      // rho^(i) goes last, so every earlier draw and sharing index stays
      // where it would be without it.
      proof.rho_refs[i] = {i, base};
      batches[i].push_back(Fld::random(net_.rng_of(i)));
    });
    const auto share_result = vss_.share_all(batches);
    proof.pass.assign(n, true);
    for (net::PartyId i = 0; i < n; ++i) {
      if (share_result.qualified[i]) continue;
      proof.pass[i] = false;
      net_.blame(net::kPublicBlame, i, "anonchan.commit.unqualified");
    }
  }
  const auto& layouts = proof.layouts;
  auto& pass = proof.pass;

  // --- Step 2: joint random challenge (one element, shared by sessions),
  // opened together with round B's batching coefficient rho ---------------
  proof.bits.resize(params_.kappa_cc);
  Fld rho;
  {
    trace::Span phase("challenge");
    vss::LinComb r_comb, rho_comb;
    for (net::PartyId i = 0; i < n; ++i) {
      if (!pass[i]) continue;
      for (std::size_t s = 0; s < S; ++s)
        r_comb.add(layouts[s][i].r.ref(0), Fld::one());
      rho_comb.add(proof.rho_refs[i], Fld::one());
    }
    const auto r_and_rho = vss_.reconstruct_public({r_comb, rho_comb});
    proof.r = r_and_rho[0];
    rho = r_and_rho[1];
    for (std::size_t j = 0; j < params_.kappa_cc; ++j)
      proof.bits[j] = proof.r.bit(static_cast<unsigned>(j));
  }
  const auto& bits = proof.bits;

  // --- Step 3, round A: open permutations / index lists --------------------
  struct ARef {
    net::PartyId dealer;
    std::size_t session;
    std::size_t copy;
    std::size_t offset;  ///< first opened word of the slab
    std::size_t words;   ///< its packed words
  };
  // Decoded openings, indexed by [session][dealer][copy].
  std::vector<std::vector<std::vector<std::optional<Opening>>>> opened(
      S, std::vector<std::vector<std::optional<Opening>>>(
             n, std::vector<std::optional<Opening>>(params_.kappa_cc)));
  {
    trace::Span phase("cut_and_choose.open");
    // Every passing dealer opens, per session, a packed index list or a
    // packed permutation per copy.
    const std::size_t passing =
        static_cast<std::size_t>(std::count(pass.begin(), pass.end(), true));
    std::size_t per_session = 0;
    for (std::size_t j = 0; j < params_.kappa_cc; ++j)
      per_session +=
          bits[j] ? params_.index_list_words() : params_.perm_words();
    std::vector<vss::LinComb> open_a;
    open_a.reserve(passing * S * per_session);
    std::vector<ARef> a_refs;
    a_refs.reserve(passing * S * params_.kappa_cc);
    for (net::PartyId i = 0; i < n; ++i) {
      if (!pass[i]) continue;
      for (std::size_t s = 0; s < S; ++s) {
        for (std::size_t j = 0; j < params_.kappa_cc; ++j) {
          const auto& slab =
              bits[j] ? layouts[s][i].idx[j] : layouts[s][i].perm[j];
          a_refs.push_back({i, s, j, open_a.size(), slab.size});
          for (std::size_t k = 0; k < slab.size; ++k)
            open_a.push_back(slab.lc(k));
        }
      }
    }
    const auto opened_a = vss_.reconstruct_public(open_a);

    const IndexCodec codec = params_.codec();
    for (const auto& ref : a_refs) {
      auto& slot = opened[ref.session][ref.dealer][ref.copy];
      const std::span<const Fld> enc(opened_a.data() + ref.offset, ref.words);
      if (bits[ref.copy]) {
        if (auto decoded = codec.decode_index_list(enc, params_.d)) {
          slot = std::move(*decoded);
        } else if (pass[ref.dealer]) {
          pass[ref.dealer] = false;
          net_.blame(net::kPublicBlame, ref.dealer,
                     "anonchan.open.bad_index_list");
        }
      } else {
        if (auto decoded = codec.decode_permutation(enc)) {
          slot = std::move(*decoded);
        } else if (pass[ref.dealer]) {
          pass[ref.dealer] = false;
          net_.blame(net::kPublicBlame, ref.dealer,
                     "anonchan.open.bad_permutation");
        }
      }
    }
  }

  // --- Step 3, round B: one batched zero test per (dealer, copy) ---------
  {
    trace::Span phase("cut_and_choose.check");
    const std::size_t tests =
        static_cast<std::size_t>(std::count(pass.begin(), pass.end(), true)) *
        S * params_.kappa_cc;
    std::vector<vss::LinComb> open_b;
    open_b.reserve(tests);
    std::vector<net::PartyId> b_dealers;
    b_dealers.reserve(tests);
    for (net::PartyId i = 0; i < n; ++i) {
      if (!pass[i]) continue;
      for (std::size_t s = 0; s < S; ++s) {
        for (std::size_t j = 0; j < params_.kappa_cc; ++j) {
          open_b.push_back(
              zero_test(params_, layouts[s][i], j, *opened[s][i][j], rho));
          b_dealers.push_back(i);
        }
      }
    }
    const auto z = vss_.reconstruct_public(open_b);
    for (std::size_t bi = 0; bi < z.size(); ++bi) {
      const net::PartyId dealer = b_dealers[bi];
      if (z[bi].is_zero() || !pass[dealer]) continue;
      pass[dealer] = false;
      net_.blame(net::kPublicBlame, dealer, "anonchan.check.nonzero");
    }
  }
  return proof;
}

ManyOutput AnonChan::finish(const Proof& proof,
                            const std::vector<std::vector<Fld>>& v,
                            const std::vector<std::vector<Permutation>>& g,
                            trace::Span& run_span) {
  const std::size_t n = net_.n();
  ManyOutput result;
  result.pass = proof.pass;
  result.sessions.resize(v.size());
  for (std::size_t s = 0; s < v.size(); ++s) {
    const std::span<const Fld> v_x(v[s].data(), params_.ell);
    const std::span<const Fld> v_a(v[s].data() + params_.ell, params_.ell);
    auto delivered = extract_output(params_, v_x, v_a);
    Output& out = result.sessions[s];
    out.t_pairs = std::move(delivered.t_pairs);
    out.y = std::move(delivered.y);
    out.challenge_bits = proof.bits;
    out.v_x.assign(v_x.begin(), v_x.end());
    out.v_a.assign(v_a.begin(), v_a.end());

    // Ground-truth collision diagnostics (Claim 2's quantity) per session.
    const auto& commitments = proof.commitments[s];
    std::vector<std::size_t> occupancy(params_.ell, 0);
    for (net::PartyId i = 0; i < n; ++i) {
      if (!result.pass[i] || commitments[i].v_indices.empty()) continue;
      for (std::size_t k = 0; k < params_.ell; ++k) {
        if (std::binary_search(commitments[i].v_indices.begin(),
                               commitments[i].v_indices.end(), g[s][i](k)))
          occupancy[k] += 1;
      }
    }
    for (std::size_t o : occupancy)
      if (o > 1) out.pairwise_collisions += o * (o - 1);
  }

  result.costs = net_.costs() - proof.cost_before;
  run_span.metric("n", static_cast<double>(n));
  run_span.metric("sessions", static_cast<double>(v.size()));
  run_span.metric("passed", static_cast<double>(std::count(
                                result.pass.begin(), result.pass.end(), true)));
  net_.registry()
      .histogram("anonchan.run_rounds")
      .observe(static_cast<double>(result.costs.rounds));
  return result;
}

ManyOutput AnonChan::run_many_to(
    const std::vector<net::PartyId>& receivers,
    const std::vector<std::vector<Fld>>& sessions) {
  const std::size_t n = net_.n();
  const std::size_t S = sessions.size();
  GFOR14_EXPECTS(receivers.size() == S);
  for (net::PartyId r : receivers) GFOR14_EXPECTS(r < n);
  GFOR14_EXPECTS(S >= 1);
  for (const auto& inputs : sessions) GFOR14_EXPECTS(inputs.size() == n);

  // The round bill of a run is fixed by the protocol structure (sessions are
  // batched into the same rounds), so a fault-wedged execution can only mean
  // a bug or an out-of-model fault — fail fast instead of spinning.
  net::RoundBudgetGuard budget(net_, expected_rounds() + 2);
  // Root span for the whole invocation; the phase spans tile every network
  // round of the run, so their deltas sum exactly to result.costs (asserted
  // in common_trace_test).
  trace::Span run_span("anonchan.run", net_);
  const Proof proof = prove(receivers, sessions);

  // --- Step 4: delivery (all sessions batched into two rounds) -------------
  std::vector<std::vector<Permutation>> g(S, std::vector<Permutation>(n));
  {
    trace::Span phase("deliver.permutations");
    const std::size_t words = params_.perm_words();
    std::vector<vss::LinComb> g_values;
    g_values.reserve(S * n * words);
    for (std::size_t s = 0; s < S; ++s)
      for (const vss::Slab& g_slab : proof.layouts[s][receivers[s]].g)
        for (std::size_t k = 0; k < words; ++k)
          g_values.push_back(g_slab.lc(k));
    const auto g_opened = vss_.reconstruct_public(g_values);
    const IndexCodec codec = params_.codec();
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t gi = 0; gi < n; ++gi) {
        auto decoded = codec.decode_permutation(std::span<const Fld>(
            g_opened.data() + (s * n + gi) * words, words));
        // An invalid permutation (only possible for a corrupt receiver) is
        // replaced by the identity: the protocol stays total, and the random
        // relocation only protected against adversarially placed indices,
        // which a corrupt receiver cannot exploit against itself.
        if (!decoded)
          net_.blame(net::kPublicBlame, receivers[s],
                     "anonchan.deliver.bad_g_permutation");
        g[s][gi] = decoded ? *decoded : Permutation::identity(params_.ell);
      }
    }
  }

  trace::Span deliver_span("deliver.private");
  // One round serves every receiver: the private reconstructions of all
  // sessions are batched per receiver.
  std::vector<vss::VssScheme::PrivateRequest> requests;
  requests.reserve(S);
  for (std::size_t s = 0; s < S; ++s)
    requests.push_back({receivers[s], delivery_values(params_, proof.layouts[s],
                                                      proof.pass, g[s])});
  return finish(proof, vss_.reconstruct_private_multi(requests), g, run_span);
}

Output AnonChan::publish(const std::vector<Fld>& inputs) {
  const std::size_t n = net_.n();
  GFOR14_EXPECTS(inputs.size() == n);
  net::RoundBudgetGuard budget(net_, expected_rounds() + 2);
  trace::Span run_span("anonchan.publish", net_);
  const Proof proof = prove({kNoReceiver}, {inputs});

  // --- Step 4: publication. Nobody chose g, so the relocation permutations
  // come from the joint challenge (fixed only after every commitment,
  // domain-separated from the challenge bits), and v is reconstructed in
  // public: one round, where run() needs two.
  trace::Span deliver_span("deliver.public");
  Rng g_rng(proof.r.to_u64() ^ 0x9E3779B97F4A7C15ULL);
  std::vector<Permutation> g(n);
  for (auto& gp : g) gp = Permutation::random(g_rng, params_.ell);
  std::vector<Fld> v = vss_.reconstruct_public(
      delivery_values(params_, proof.layouts[0], proof.pass, g));
  return only_session(finish(proof, {std::move(v)}, {std::move(g)}, run_span));
}

}  // namespace gfor14::anonchan
