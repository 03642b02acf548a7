// Protocol AnonChan (Figure 1): a fast, unconditionally secure many-to-one
// anonymous channel over black-box linear VSS, for t < n/2.
//
// Round structure (everything batched, all dealers in parallel):
//   step 1   r_VSS-share rounds  — every party VSS-shares v, the kappa
//            permuted copies w_j, the permutations pi_j, the non-zero index
//            lists, r^(i) and rho^(i); the receiver additionally shares
//            g_1..g_n. pi_j, the index lists and g_i are only ever opened,
//            so they are packed several indices per word (IndexCodec);
//   step 2   1 round             — public VSS-Rec of r = sum r^(i) and
//            rho = sum rho^(i);
//   step 3   2 rounds            — cut-and-choose: open pi_j or the index
//            list of w_j (round A), then one zero test per copy, the
//            dependent zero/equality checks combined in powers of rho
//            (round B); failures disqualify;
//   step 4   2 rounds            — public VSS-Rec of g_1..g_n, then private
//            reconstruction of v = sum_{PASS} g_i(v^(i)) toward P*.
//
// Total: r_VSS-share + 5 rounds, and NO broadcast beyond the sharing
// phase's — the reduction is broadcast-round-preserving (with the GGOR13
// profile the whole protocol uses the broadcast channel exactly twice).
//
// publish() is anonymous publication (many-to-all, Chaum's original DC-net
// use case): steps 1-3 verbatim with no receiver, so nobody shares g; step 4
// derives the relocation permutations from the joint challenge and
// reconstructs v in public, one round: r_VSS-share + 4 rounds in total.
#pragma once

#include <memory>
#include <vector>

#include "anonchan/cut_and_choose.hpp"
#include "anonchan/sparse_vector.hpp"
#include "net/network.hpp"
#include "vss/vss.hpp"

namespace gfor14::trace {
class Span;
}

namespace gfor14::anonchan {

struct Output {
  std::vector<Fld> y;                        ///< the multiset Y output by P*
  std::vector<std::pair<Fld, Fld>> t_pairs;  ///< the set T (diagnostics)
  std::vector<bool> pass;                    ///< final PASS membership
  net::CostReport costs;                     ///< whole-protocol resource use

  // --- diagnostics for the experiment harness (ground truth, not wire
  // data) ---
  /// Sum over ordered pairs i != j of |I_i ∩ I_j| for the passing dealers
  /// with known ground truth — the quantity Claim 2 bounds.
  std::size_t pairwise_collisions = 0;
  /// Challenge bits actually used.
  std::vector<bool> challenge_bits;
  /// The receiver's reconstructed vector v (its legitimate protocol view;
  /// exposed for the anonymity-statistics experiments, which test that
  /// message positions in v are uniform).
  std::vector<Fld> v_x, v_a;

  bool delivered(Fld message) const;
  /// Positions k with v[k] == (message, *): what a curious receiver sees.
  std::vector<std::size_t> positions_of(Fld message) const;
};

/// Result of a multi-session invocation (Section 4 runs "many sessions in
/// parallel"): per-session outputs plus the shared cost/PASS bookkeeping.
struct ManyOutput {
  std::vector<Output> sessions;  ///< y/t_pairs per session
  std::vector<bool> pass;        ///< global PASS (cheating anywhere ejects)
  net::CostReport costs;
};

class AnonChan {
 public:
  AnonChan(net::Network& net, vss::VssScheme& vss, Params params);

  /// Overrides a party's commitment strategy (default: HonestSender).
  void set_strategy(net::PartyId p, std::shared_ptr<SenderStrategy> s);

  /// Makes the receiver share garbage instead of valid permutations g_i
  /// (only meaningful when the receiver is corrupt). Honest parties then
  /// substitute the identity permutation after the public reconstruction.
  void set_receiver_garbage_perms(bool enabled) { garbage_g_ = enabled; }

  /// Ablation: the receiver shares identity permutations (i.e., the
  /// protocol without the step-4 random relocation).
  void set_identity_g(bool enabled) { identity_g_ = enabled; }

  /// Runs one full channel invocation. inputs[i] is P_i's message x_i.
  Output run(net::PartyId receiver, const std::vector<Fld>& inputs);

  /// Runs S independent channel sessions toward the same receiver in the
  /// SAME constant number of rounds (one parallel VSS sharing phase, one
  /// challenge, one cut-and-choose, one delivery). sessions[s][i] is P_i's
  /// message in session s. A dealer caught cheating in any session is
  /// disqualified from all of them.
  ManyOutput run_many(net::PartyId receiver,
                      const std::vector<std::vector<Fld>>& sessions);

  /// Fully general parallel composition: session s delivers to
  /// receivers[s] — possibly a DIFFERENT receiver per session — still in
  /// one constant-round execution (the final private reconstructions for
  /// all receivers share a single round). This is the exact mode Section 4
  /// uses: "invoke protocol AnonChan for each P_i, acting as receiver for
  /// many sessions in parallel".
  ManyOutput run_many_to(const std::vector<net::PartyId>& receivers,
                         const std::vector<std::vector<Fld>>& sessions);

  /// Publishes every party's message anonymously to everyone: each party
  /// learns the multiset y (and v), nobody learns who sent what. The output
  /// is the same for every party; costs count the whole invocation.
  Output publish(const std::vector<Fld>& inputs);

  /// Expected round count of run(): r_VSS-share + 5 (see header comment).
  std::size_t expected_rounds() const;
  /// Expected broadcast rounds: exactly the sharing phase's.
  std::size_t expected_broadcast_rounds() const;

  const Params& params() const { return params_; }

 private:
  struct Proof;
  /// Steps 1-3 for every session: the parallel commitments (session s's
  /// receivers[s] also shares g_1..g_n), the challenge and both
  /// cut-and-choose rounds, with their blames and phase spans.
  Proof prove(const std::vector<net::PartyId>& receivers,
              const std::vector<std::vector<Fld>>& sessions);
  /// Fills the outputs from each session's delivered vector v[s] and its
  /// relocation permutations g[s], and closes the run's bookkeeping.
  ManyOutput finish(const Proof& proof, const std::vector<std::vector<Fld>>& v,
                    const std::vector<std::vector<Permutation>>& g,
                    trace::Span& run_span);

  net::Network& net_;
  vss::VssScheme& vss_;
  Params params_;
  std::vector<std::shared_ptr<SenderStrategy>> strategies_;
  bool garbage_g_ = false;
  bool identity_g_ = false;
};

}  // namespace gfor14::anonchan
