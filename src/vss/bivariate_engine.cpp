#include "vss/bivariate_engine.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "ff/batch.hpp"
#include "ff/ops.hpp"
#include "math/berlekamp_welch.hpp"
#include "math/lagrange_cache.hpp"

namespace gfor14::vss {

namespace {

Fld enc(std::size_t v) { return Fld::from_u64(static_cast<std::uint64_t>(v)); }

/// Decodes a size_t that was encoded with enc(); nullopt when out of range.
std::optional<std::size_t> dec(Fld f, std::size_t bound) {
  const std::uint64_t v = f.to_u64();
  if (f != Fld::from_u64(v) || v >= bound) return std::nullopt;
  return static_cast<std::size_t>(v);
}

// Work per parallel_for index in reconstruction — values in the decoder,
// terms in the fold: large enough that the pool's shared cursor is touched
// a few times per call, not once per value, small enough that a call
// splits into many more chunks than lanes.
constexpr std::size_t kReconChunk = 2048;

/// The pair challenge a party uses when the other side's R1 word is missing
/// or malformed (only pairs with a corrupt sender ever fall back to it).
const Fld kDefaultChallenge = Fld::one();

/// Words per dot-product block of a challenge combination.
constexpr std::size_t kChallengeBlock = 1024;
/// w[k * s + c] = rho^(k+1) * x^c for the kChallengeBlock / s slices of s
/// coefficients one block covers.
using ChallengeWeights = std::array<Fld, kChallengeBlock>;

void challenge_weights(Fld rho, Fld x, std::size_t s, ChallengeWeights& w) {
  Fld rk = rho;
  for (std::size_t k = 0; k < kChallengeBlock / s; ++k, rk *= rho) {
    Fld term = rk;
    for (std::size_t c = 0; c < s; ++c, term *= x) w[k * s + c] = term;
  }
}

/// sum_k rho^(k+1) * f_k(x) over the slices f_k of `slices`: a blocked dot
/// of the wire words against the weight table, Horner-combined in rho^(slices
/// per block) (message_digest's shape). Zero for a zero view.
Fld challenge_combination(const SliceView& slices, const ChallengeWeights& w) {
  const std::span<const Fld> words = slices.words();
  const std::size_t s = slices.coeffs_per_poly();
  const std::size_t block = kChallengeBlock / s * s;
  const Fld step = w[block - s];
  Fld h = Fld::zero();
  for (std::size_t j = (words.size() + block - 1) / block; j-- > 0;) {
    const std::span<const Fld> part = words.subspan(
        j * block, std::min(block, words.size() - j * block));
    h = h * step +
        ff::batch::dot(part, std::span<const Fld>(w).first(part.size()));
  }
  return h;
}

}  // namespace

BivariateEngine::BivariateEngine(net::Network& net, EngineProfile profile)
    : net_(net),
      vss_alloc_count_(&net.registry().counter("vss.alloc.count")),
      vss_alloc_bytes_(&net.registry().counter("vss.alloc.bytes")),
      recon_fallback_values_(
          &net.registry().counter("vss.recon.fallback_values")),
      profile_(profile),
      behaviour_(net.n(), DealerBehaviour::kHonest),
      qualified_(net.n(), true),
      pools_(net.n()) {
  GFOR14_EXPECTS(profile_.t < net.n());
}

void BivariateEngine::set_dealer_behaviour(net::PartyId dealer,
                                           DealerBehaviour b) {
  GFOR14_EXPECTS(dealer < net_.n());
  behaviour_[dealer] = b;
}

std::size_t BivariateEngine::count(net::PartyId dealer) const {
  GFOR14_EXPECTS(dealer < net_.n());
  return pools_[dealer].count();
}

std::size_t BivariateEngine::share_rounds() const {
  // R1 slices, R2 cross-evaluations, 6 publish steps (complaints,
  // resolutions, accusations x2, slice openings x2) costing 1 round under
  // physical broadcast or 2 under echo, the vote broadcast (always
  // physical), the GGOR confirmation broadcast, and padding.
  if (profile_.publish == PublishMode::kPhysicalBroadcast)
    return 2 + 6 + 1 + profile_.pad_rounds;
  return 2 + 6 * 2 + 1 + 1 + profile_.pad_rounds;
}

std::size_t BivariateEngine::share_broadcast_rounds() const {
  // Echo profile: only the vote round and the dealer confirmation touch the
  // physical broadcast channel — the two broadcasts of GGOR13.
  return profile_.publish == PublishMode::kPhysicalBroadcast ? 7 : 2;
}

// ---------------------------------------------------------------------------
// Sharing phase
// ---------------------------------------------------------------------------

struct BivariateEngine::ShareCtx {
  const std::vector<std::vector<Fld>>* batches = nullptr;
  std::vector<net::PartyId> dealers;  // dealers with non-empty batches

  // Hoisted evaluation points alpha[i] = eval_point<64>(i) — the SoA
  // context shared by every round so no payload loop recomputes them.
  std::vector<Fld> alpha;

  // Ground-truth polynomials per dealer, dealt straight into
  // coefficient-major planes (indexed like batches).
  std::vector<BivariateBatch> bivariate;
  // recv[i][d]: the slices party i currently holds for dealer d, read in
  // place: the R1 message as delivered (r1 keeps it alive), the dealer's
  // own slot in own[d], an adopted opening in `openings`, or zeros.
  std::vector<std::vector<SliceView>> recv;
  std::shared_ptr<const net::RoundTraffic> r1;
  std::vector<Recycled> own;
  std::vector<std::vector<net::Payload>> openings;
  // rho[i * n + j]: the pair challenge party i uses with party j (drawn by
  // the lower index, received by the higher); statistical profiles only.
  std::vector<Fld> rho;
  // R2 words per ordered pair: the check widths summed over the dealers.
  std::size_t check_words = 0;

  // Check word b of dealer d covers the secrets [b * s, (b + 1) * s), with
  // s = m / check_width(m): one secret per word, or the whole batch.
  struct Complaint {
    std::size_t d, b, lo, hi;  // pair {lo, hi}, lo < hi
    auto operator<=>(const Complaint&) const = default;
  };
  std::set<Complaint> complaints;
  // Published resolution values F(alpha_lo, alpha_hi) of every covered
  // secret, keyed by complaint.
  std::map<Complaint, std::vector<Fld>> resolutions;
  // Public fault flags per dealer (missing/inconsistent publications).
  std::vector<bool> public_fault;
  // Everything the dealer has published so far: party -> opened slices.
  std::vector<std::map<net::PartyId, SliceView>> published;
  // Current accuser set per dealer (level being processed).
  std::vector<std::set<net::PartyId>> accusers;
  // Private conflict flag per (party, dealer).
  std::vector<std::vector<bool>> conflicted;
};

void BivariateEngine::for_each_pair(
    const std::function<void(net::PartyId, net::PartyId)>& fn) const {
  const std::size_t n = net_.n();
  ThreadPool::instance().parallel_for(
      0, n * n, net_.threads(), [&](std::size_t p) { fn(p / n, p % n); });
}

void BivariateEngine::round_distribute_slices(ShareCtx& ctx) {
  const std::size_t n = net_.n();
  const std::size_t t = profile_.t;
  const bool challenges = !per_secret_checks();
  const auto sends_slices = [&](net::PartyId d) {
    return !(*ctx.batches)[d].empty() &&
           behaviour_[d] != DealerBehaviour::kSilent;
  };
  // Words ahead of the slices in the message p -> q: the pair challenge,
  // which the lower index draws.
  const auto lead = [&](net::PartyId p, net::PartyId q) -> std::size_t {
    return challenges && p < q ? 1 : 0;
  };
  // A misbehaving dealer hands garbage slices to every second party (other
  // than itself) — enough to exercise complaint/resolution.
  const auto garbage = [&](net::PartyId d, net::PartyId i) {
    const DealerBehaviour b = behaviour_[d];
    return (b == DealerBehaviour::kInconsistentThenResolve ||
            b == DealerBehaviour::kInconsistentRefuse) &&
           i != d && i % 2 == 1;
  };
  // kInconsistentOneSecret's cheat (see vss.hpp): the victim's slice of
  // secret k is shifted by delta(x) = prod_{q in Z} (x - alpha_q), Z up to t
  // honest parties other than the victim and the witness.
  struct Skew {
    net::PartyId victim = 0;
    std::size_t k = 0;
    Poly delta;
  };
  std::vector<std::optional<Skew>> skew(n);
  for (net::PartyId d : ctx.dealers) {
    if (behaviour_[d] != DealerBehaviour::kInconsistentOneSecret) continue;
    const auto& secrets = (*ctx.batches)[d];
    const auto k = std::find_if(secrets.begin(), secrets.end(),
                                [](Fld s) { return s != Fld::zero(); });
    std::vector<net::PartyId> honest;
    for (net::PartyId q = 0; q < n; ++q)
      if (q != d && !net_.is_corrupt(q)) honest.push_back(q);
    if (k == secrets.end() || honest.size() < 2) continue;
    Skew sk{honest[0], static_cast<std::size_t>(k - secrets.begin()),
            Poly::constant(Fld::one())};
    for (std::size_t z = 2; z < honest.size() && z < t + 2; ++z)
      sk.delta = sk.delta * Poly{{ctx.alpha[honest[z]], Fld::one()}};
    skew[d] = std::move(sk);
  }
  // out[d * n + i]: party d's R1 payload for party i, sized from the
  // recycler and built off the round so the handler below only moves
  // payloads onto the wire. Challenges and garbage slices first, per party:
  // their draws from rng_of(d) are part of the transcript, so each party's
  // stay one serial loop.
  std::vector<net::Payload> out(n * n);
  net_.for_each_party([&](net::PartyId d) {
    const std::size_t m = sends_slices(d) ? (*ctx.batches)[d].size() : 0;
    for (net::PartyId i = 0; i < n; ++i) {
      if (i == d) continue;
      net::Payload& payload = out[d * n + i];
      payload = BufferRecycler::instance().take(lead(d, i) + m * (t + 1));
      if (lead(d, i) > 0)
        payload[0] = ctx.rho[d * n + i] = Fld::random_nonzero(net_.rng_of(d));
    }
    for (net::PartyId i = 0; i < n && m > 0; ++i) {
      if (!garbage(d, i)) continue;
      Fld* word = out[d * n + i].data() + lead(d, i);
      for (std::size_t k = 0; k < m; ++k) {
        const Poly slice = Poly::random(net_.rng_of(d), t);
        for (std::size_t c = 0; c <= t; ++c)
          *word++ = c < slice.coeffs().size() ? slice.coeffs()[c] : Fld::zero();
      }
    }
  });
  // Honest slices, one task per (dealer, party) pair: one batched Horner
  // sweep over the dealer's planes, straight into the wire layout — for
  // the dealer's own slot (local state, no self-message), into own[d].
  for_each_pair([&](net::PartyId d, net::PartyId i) {
    const std::size_t m = (*ctx.batches)[d].size();
    if (m == 0) return;
    if (!sends_slices(d)) {
      if (i == d) ctx.recv[d][d] = SliceView::zeros(m, t + 1);
      return;
    }
    charge_share_buffer(m * (t + 1));
    if (i == d) {
      ctx.own[d] = Recycled(m * (t + 1));
      ctx.bivariate[d].slices_kmajor(ctx.alpha[d], *ctx.own[d]);
      ctx.recv[d][d] = SliceView(*ctx.own[d], t + 1);
    } else if (!garbage(d, i)) {
      const std::span<Fld> slices =
          std::span<Fld>(out[d * n + i]).subspan(lead(d, i));
      ctx.bivariate[d].slices_kmajor(ctx.alpha[i], slices);
      if (skew[d] && skew[d]->victim == i) {
        const auto& dc = skew[d]->delta.coeffs();
        for (std::size_t c = 0; c < dc.size(); ++c)
          slices[skew[d]->k * (t + 1) + c] += dc[c];
      }
    }
  });
  net_.run_round([&](net::PartyId d, net::RoundLane& lane) {
    for (net::PartyId i = 0; i < n; ++i)
      if (i != d && !out[d * n + i].empty())
        lane.send(i, std::move(out[d * n + i]));
  });
  // Parse: wrong-size or missing payloads leave the default zero slices
  // (the paper's default-message convention) and earn the dealer a blame
  // record, filed afterwards per accuser in dealer order. A message of just
  // the challenge carries no slices; a challenge in a malformed message is
  // replaced by the default. Whole messages are read in place.
  enum : std::uint8_t { kOk, kMissing, kMalformed };
  std::vector<std::uint8_t> status(n * n, kOk);
  ctx.r1 = net_.delivered_shared();
  for_each_pair([&](net::PartyId i, net::PartyId d) {
    if (i == d) return;
    const std::size_t m = (*ctx.batches)[d].size();
    const std::size_t skip = lead(d, i);
    const auto& msgs = ctx.r1->p2p[i][d];
    const std::size_t size = msgs.empty() ? 0 : msgs.front().size();
    const bool whole = !msgs.empty() && size == skip + m * (t + 1);
    const bool bare = !msgs.empty() && skip > 0 && size == skip;
    if (skip > 0 && (whole || bare)) ctx.rho[i * n + d] = msgs.front()[0];
    if (m == 0) return;
    if (!whole) {
      status[i * n + d] = msgs.empty() || bare ? kMissing : kMalformed;
      ctx.recv[i][d] = SliceView::zeros(m, t + 1);
      return;
    }
    ctx.recv[i][d] =
        SliceView(std::span<const Fld>(msgs.front()).subspan(skip), t + 1);
  });
  for (net::PartyId i = 0; i < n; ++i)
    for (net::PartyId d : ctx.dealers) {
      if (status[i * n + d] == kMissing) net_.blame(i, d, "vss.slices.missing");
      if (status[i * n + d] == kMalformed)
        net_.blame(i, d, "vss.slices.malformed");
    }
}

void BivariateEngine::round_cross_checks(ShareCtx& ctx) {
  const std::size_t n = net_.n();
  const bool per_secret = per_secret_checks();
  // out[i * n + j]: party i's check words for party j, concatenated in
  // dealer order; one task per (i, j) pair. Per-secret checks evaluate each
  // dealer's block in one batched Horner sweep at the hoisted point
  // alpha_j; otherwise each dealer's block folds into one challenge
  // combination, kept for the compare below.
  std::vector<net::Payload> out(n * n);
  for_each_pair([&](net::PartyId i, net::PartyId j) {
    if (i == j) return;
    net::Payload& payload = out[i * n + j];
    payload.resize(ctx.check_words);
    charge_share_buffer(ctx.check_words);
    ChallengeWeights weights{};
    if (!per_secret)
      challenge_weights(ctx.rho[i * n + j], ctx.alpha[j], profile_.t + 1,
                        weights);
    std::size_t pos = 0;
    for (net::PartyId d : ctx.dealers) {
      const std::size_t m = (*ctx.batches)[d].size();
      if (per_secret) {
        ctx.recv[i][d].eval_range(ctx.alpha[j], 0,
                                  std::span<Fld>(payload).subspan(pos, m));
      } else {
        payload[pos] = challenge_combination(ctx.recv[i][d], weights);
      }
      pos += check_width(m);
    }
  });
  net_.run_round([&](net::PartyId i, net::RoundLane& lane) {
    for (net::PartyId j = 0; j < n; ++j) {
      if (i == j) continue;
      if (per_secret) {
        lane.send(j, std::move(out[i * n + j]));
      } else {
        lane.send(j, out[i * n + j]);
      }
    }
  });
  // Compare, per (i, j) pair: j's claimed words against mine — the kept
  // combinations, or f_i(alpha_j) re-evaluated chunk by chunk into a stack
  // buffer so the claims are checked while both are in cache. Each pair
  // buffers its own complaints; the merge into the (deduplicating, ordered)
  // set is order-insensitive, so the parallel schedule cannot show through.
  constexpr std::size_t kChunk = 1024;
  std::vector<std::vector<ShareCtx::Complaint>> found(n * n);
  for_each_pair([&](net::PartyId i, net::PartyId j) {
    if (i == j) return;
    const auto& msgs = net_.delivered().p2p[i][j];
    const net::Payload* payload =
        (!msgs.empty() && msgs.front().size() == ctx.check_words)
            ? &msgs.front()
            : nullptr;
    const std::size_t lo = std::min(i, j), hi = std::max(i, j);
    Fld buf[kChunk];
    std::size_t pos = 0;
    for (net::PartyId d : ctx.dealers) {
      const std::size_t words = check_width((*ctx.batches)[d].size());
      for (std::size_t b0 = 0; b0 < words; b0 += kChunk) {
        const std::size_t len = std::min(kChunk, words - b0);
        std::span<const Fld> mine;
        if (per_secret) {
          ctx.recv[i][d].eval_range(ctx.alpha[j], b0, std::span<Fld>(buf, len));
          mine = std::span<const Fld>(buf, len);
        } else {
          mine = std::span<const Fld>(out[i * n + j]).subspan(pos + b0, len);
        }
        for (std::size_t b = 0; b < len; ++b) {
          const Fld claimed = payload ? (*payload)[pos + b0 + b] : Fld::zero();
          if (claimed != mine[b]) found[i * n + j].push_back({d, b0 + b, lo, hi});
        }
      }
      pos += words;
    }
  });
  for (const auto& per_pair : found)
    ctx.complaints.insert(per_pair.begin(), per_pair.end());
}

void BivariateEngine::publish_round(const std::vector<net::Payload>& per_party,
                                    std::vector<net::Payload>& received,
                                    bool force_physical) {
  const std::size_t n = net_.n();
  received = per_party;  // the logical result every party derives
  if (force_physical ||
      profile_.publish == PublishMode::kPhysicalBroadcast) {
    net_.begin_round();
    for (net::PartyId p = 0; p < n; ++p) net_.broadcast(p, per_party[p]);
    net_.end_round();
    return;
  }
  // Echo-based virtual broadcast: senders multicast over private channels,
  // then every party echoes everything it received; receivers take the
  // majority view per sender. With static corruption and honest senders the
  // majority equals the original payload, which is the value we return.
  net_.begin_round();
  for (net::PartyId p = 0; p < n; ++p)
    for (net::PartyId q = 0; q < n; ++q)
      if (p != q) net_.send(p, q, per_party[p]);
  net_.end_round();
  net_.begin_round();
  for (net::PartyId p = 0; p < n; ++p) {
    net::Payload echo;
    for (net::PartyId s = 0; s < n; ++s) {
      echo.push_back(enc(per_party[s].size()));
      echo.insert(echo.end(), per_party[s].begin(), per_party[s].end());
    }
    for (net::PartyId q = 0; q < n; ++q)
      if (p != q) net_.send(p, q, echo);
  }
  net_.end_round();
}

void BivariateEngine::run_padding_rounds() {
  for (std::size_t r = 0; r < profile_.pad_rounds; ++r) {
    net_.begin_round();
    net_.end_round();
  }
}

ShareResult BivariateEngine::share_all(
    const std::vector<std::vector<Fld>>& batches) {
  const std::size_t n = net_.n();
  const std::size_t t = profile_.t;
  GFOR14_EXPECTS(batches.size() == n);

  trace::Span span("vss.share_all", net_);
  std::size_t total_secrets = 0;
  for (const auto& b : batches) total_secrets += b.size();
  span.metric("secrets", static_cast<double>(total_secrets));

  ShareCtx ctx;
  ctx.batches = &batches;
  ctx.alpha.resize(n);
  for (net::PartyId i = 0; i < n; ++i) ctx.alpha[i] = eval_point<64>(i);
  ctx.bivariate.resize(n);
  ctx.recv.assign(n, std::vector<SliceView>(n));
  ctx.own.resize(n);
  if (!per_secret_checks()) ctx.rho.assign(n * n, kDefaultChallenge);
  ctx.public_fault.assign(n, false);
  ctx.published.resize(n);
  ctx.accusers.resize(n);
  ctx.conflicted.assign(n, std::vector<bool>(n, false));
  for (net::PartyId d = 0; d < n; ++d) {
    if (batches[d].empty()) continue;
    ctx.dealers.push_back(d);
    ctx.check_words += check_width(batches[d].size());
  }
  // Polynomial generation per dealer: dealer d draws only from its own
  // forked RNG stream, in SymmetricBivariate::random_with_secret's order
  // (see BivariateBatch::random_with_secrets), and fills only its own batch.
  net_.for_each_party([&](net::PartyId d) {
    if (batches[d].empty()) return;
    ctx.bivariate[d].random_with_secrets(net_.rng_of(d), t, batches[d]);
  });

  // R1 + R2.
  round_distribute_slices(ctx);
  round_cross_checks(ctx);

  // Corrupt parties may raise spurious complaints (attack switch): they
  // complain about check word 0 of every other dealer's batch.
  if (false_complaints_) {
    for (net::PartyId p = 0; p < n; ++p) {
      if (!net_.is_corrupt(p)) continue;
      for (net::PartyId d : ctx.dealers) {
        if (d == p) continue;
        const net::PartyId other = (p + 1) % n;
        if (other == p) continue;
        ctx.complaints.insert({d, 0, std::min<std::size_t>(p, other),
                               std::max<std::size_t>(p, other)});
      }
    }
  }

  // R3: publish complaints. Every party publishes the complaints it is part
  // of (ownership by the lower-numbered party avoids double publication).
  {
    std::vector<net::Payload> out(n);
    for (const auto& c : ctx.complaints) {
      auto& payload = out[c.lo];
      payload.push_back(enc(c.d));
      payload.push_back(enc(c.b));
      payload.push_back(enc(c.lo));
      payload.push_back(enc(c.hi));
    }
    std::vector<net::Payload> seen;
    publish_round(out, seen);
    // Parse the public complaint set (validating every field).
    ctx.complaints.clear();
    for (net::PartyId p = 0; p < n; ++p) {
      const auto& payload = seen[p];
      for (std::size_t pos = 0; pos + 4 <= payload.size(); pos += 4) {
        auto d = dec(payload[pos], n);
        auto lo = dec(payload[pos + 2], n);
        auto hi = dec(payload[pos + 3], n);
        if (!d || !lo || !hi || batches[*d].empty()) continue;
        auto b = dec(payload[pos + 1], check_width(batches[*d].size()));
        if (!b || *lo >= *hi) continue;
        ctx.complaints.insert({*d, *b, *lo, *hi});
      }
    }
  }

  // Secrets one check word of dealer d covers.
  const auto covered = [&](net::PartyId d) {
    return batches[d].size() / check_width(batches[d].size());
  };
  // Whether a party's slices of dealer d, evaluated at `x`, match `values`
  // on the secrets check word b covers: one batched Horner sweep.
  std::vector<Fld> mine;
  const auto matches = [&](const SliceView& slices, Fld x, std::size_t b,
                           std::span<const Fld> values) {
    mine.resize(values.size());
    slices.eval_range(x, b * values.size(), std::span<Fld>(mine));
    return std::equal(mine.begin(), mine.end(), values.begin());
  };

  // R4: dealers publish resolutions F(alpha_lo, alpha_hi) for every secret a
  // complained check word covers.
  {
    std::vector<net::Payload> out(n);
    for (const auto& c : ctx.complaints) {
      const DealerBehaviour b = behaviour_[c.d];
      if (b == DealerBehaviour::kSilent ||
          b == DealerBehaviour::kInconsistentRefuse)
        continue;
      auto& payload = out[c.d];
      payload.push_back(enc(c.b));
      payload.push_back(enc(c.lo));
      payload.push_back(enc(c.hi));
      const std::size_t s = covered(c.d);
      for (std::size_t k = c.b * s; k < (c.b + 1) * s; ++k)
        payload.push_back(
            ctx.bivariate[c.d].eval(k, ctx.alpha[c.lo], ctx.alpha[c.hi]));
    }
    std::vector<net::Payload> seen;
    publish_round(out, seen);
    for (net::PartyId d = 0; d < n; ++d) {
      if (batches[d].empty()) continue;
      const auto& payload = seen[d];
      const std::size_t s = covered(d);
      for (std::size_t pos = 0; pos + 3 + s <= payload.size(); pos += 3 + s) {
        auto b = dec(payload[pos], check_width(batches[d].size()));
        auto lo = dec(payload[pos + 1], n);
        auto hi = dec(payload[pos + 2], n);
        if (!b || !lo || !hi || *lo >= *hi) continue;
        const auto values = payload.begin() + static_cast<std::ptrdiff_t>(pos + 3);
        ctx.resolutions[{d, *b, *lo, *hi}].assign(
            values, values + static_cast<std::ptrdiff_t>(s));
      }
    }
    // Unresolved complaints are a public fault of the dealer.
    for (const auto& c : ctx.complaints)
      if (!ctx.resolutions.contains(c)) ctx.public_fault[c.d] = true;
    // Parties whose slices conflict with a resolution accuse (level 1).
    for (const auto& [c, values] : ctx.resolutions) {
      for (net::PartyId p : {c.lo, c.hi}) {
        const net::PartyId other = (p == c.lo) ? c.hi : c.lo;
        if (!matches(ctx.recv[p][c.d], ctx.alpha[other], c.b, values))
          ctx.accusers[c.d].insert(p);
      }
    }
  }

  // Two rounds of (accusation publication, slice opening). Level 1 handles
  // resolution conflicts; level 2 handles conflicts with slices opened at
  // level 1 (see the class comment for why two levels suffice here).
  for (int level = 0; level < 2; ++level) {
    // Publish accusations.
    {
      std::vector<net::Payload> out(n);
      for (net::PartyId d : ctx.dealers)
        for (net::PartyId a : ctx.accusers[d]) out[a].push_back(enc(d));
      std::vector<net::Payload> seen;
      publish_round(out, seen);
      for (net::PartyId d : ctx.dealers) ctx.accusers[d].clear();
      for (net::PartyId a = 0; a < n; ++a)
        for (Fld f : seen[a])
          if (auto d = dec(f, n); d && !batches[*d].empty())
            ctx.accusers[*d].insert(a);
    }
    // Dealers open the accusers' full slices.
    {
      std::vector<net::Payload> out(n);
      for (net::PartyId d : ctx.dealers) {
        const DealerBehaviour b = behaviour_[d];
        if (b == DealerBehaviour::kSilent ||
            b == DealerBehaviour::kInconsistentRefuse)
          continue;
        const std::size_t m = batches[d].size();
        auto& payload = out[d];
        const auto open = [&](net::PartyId a) {
          payload.push_back(enc(a));
          payload.resize(payload.size() + m * (t + 1));
          const std::span<Fld> slices = std::span<Fld>(payload).last(m * (t + 1));
          ctx.bivariate[d].slices_kmajor(ctx.alpha[a], slices);
          return slices;
        };
        for (net::PartyId a : ctx.accusers[d]) open(a);
        if (b != DealerBehaviour::kUnsolicitedOpening) continue;
        net::PartyId victim = 0;
        while (victim < n && (victim == d || net_.is_corrupt(victim) ||
                              ctx.accusers[d].contains(victim)))
          ++victim;
        if (victim == n) continue;
        const std::span<Fld> slices = open(victim);
        for (std::size_t k = 0; k < m; ++k) slices[k * (t + 1)] += Fld::one();
      }
      std::vector<net::Payload>& seen = ctx.openings.emplace_back();
      publish_round(out, seen);
      std::vector<std::set<net::PartyId>> next_accusers(n);
      for (net::PartyId d : ctx.dealers) {
        const std::size_t m = batches[d].size();
        const std::size_t stride = 1 + m * (t + 1);
        const auto& payload = seen[d];
        std::set<net::PartyId> opened;
        for (std::size_t pos = 0; pos + stride <= payload.size();
             pos += stride) {
          auto a = dec(payload[pos], n);
          if (!a) continue;
          // Only a current accuser may adopt or cross-check an opening.
          if (!ctx.accusers[d].contains(*a)) {
            net_.blame(net::kPublicBlame, d, "vss.open.unsolicited");
            continue;
          }
          const SliceView slices(
              std::span<const Fld>(payload).subspan(pos + 1, m * (t + 1)),
              t + 1);
          // Public cross-checks: opened slices must agree with previously
          // opened slices and with published resolutions.
          for (const auto& [b_party, b_slices] : ctx.published[d])
            for (std::size_t k = 0; k < m; ++k)
              if (slices.eval_at(k, ctx.alpha[b_party]) !=
                  b_slices.eval_at(k, ctx.alpha[*a]))
                ctx.public_fault[d] = true;
          for (const auto& [c, values] : ctx.resolutions) {
            if (c.d != d || (c.lo != *a && c.hi != *a)) continue;
            const net::PartyId other = c.lo == *a ? c.hi : c.lo;
            if (!matches(slices, ctx.alpha[other], c.b, values))
              ctx.public_fault[d] = true;
          }
          // The accuser adopts the opened slices; everyone else privately
          // cross-checks them against their own slices.
          ctx.recv[*a][d] = slices;
          for (net::PartyId p = 0; p < n; ++p) {
            if (p == *a || ctx.accusers[d].contains(p)) continue;
            for (std::size_t k = 0; k < m; ++k) {
              if (ctx.recv[p][d].eval_at(k, ctx.alpha[*a]) !=
                  slices.eval_at(k, ctx.alpha[p])) {
                if (level == 0) next_accusers[d].insert(p);
                else ctx.conflicted[p][d] = true;
              }
            }
          }
          ctx.published[d].emplace(*a, slices);
          opened.insert(*a);
        }
        // Ignoring an accuser is a public fault.
        for (net::PartyId a : ctx.accusers[d])
          if (!opened.contains(a)) ctx.public_fault[d] = true;
      }
      for (net::PartyId d : ctx.dealers) ctx.accusers[d] = next_accusers[d];
    }
  }

  // R9: votes. A party accepts a dealer unless there is a public fault or a
  // private conflict; corrupt parties additionally reject everyone when the
  // false-complaint attack is active.
  std::vector<std::size_t> accepts(n, 0);
  {
    std::vector<net::Payload> out(n);
    for (net::PartyId p = 0; p < n; ++p) {
      for (net::PartyId d : ctx.dealers) {
        bool accept = !ctx.public_fault[d] && !ctx.conflicted[p][d];
        if (false_complaints_ && net_.is_corrupt(p)) accept = false;
        out[p].push_back(enc(accept ? 1 : 0));
      }
    }
    std::vector<net::Payload> seen;
    publish_round(out, seen, /*force_physical=*/true);
    for (net::PartyId p = 0; p < n; ++p) {
      const auto& payload = seen[p];
      for (std::size_t idx = 0; idx < ctx.dealers.size(); ++idx) {
        if (idx < payload.size() && payload[idx] == Fld::from_u64(1))
          accepts[ctx.dealers[idx]] += 1;
      }
    }
  }

  // GGOR13 profile: a final dealer confirmation on the second of its two
  // physical-broadcast rounds (the "moderator finalization").
  if (profile_.publish == PublishMode::kEcho) {
    net_.begin_round();
    for (net::PartyId d : ctx.dealers) net_.broadcast(d, {Fld::one()});
    net_.end_round();
  }
  run_padding_rounds();
  // The dealt planes are spent: back to the recycler before finalize takes.
  ctx.bivariate.clear();

  // Finalize: append sharings, derive committed share polynomials. The
  // qualification flags live in vector<bool> (adjacent bits share a byte),
  // so they are set serially; the interpolation work — all of the cost —
  // then runs per dealer, each writing only its own pre-sized slots.
  ShareResult result;
  result.qualified.assign(n, true);
  std::vector<std::size_t> base(n, 0);
  for (net::PartyId d : ctx.dealers) {
    const bool ok = accepts[d] >= n - profile_.t;
    result.qualified[d] = ok;
    if (!ok) qualified_[d] = false;
    pools_[d].configure(t + 1);
    // Zero columns until interpolated: a disqualified dealer's stay zero.
    base[d] = pools_[d].append(batches[d].size(), /*zero=*/true);
  }
  // Finalize faults found on the worker lanes (one byte per dealer slot, so
  // concurrent writers never share a byte): 1 = too few content parties,
  // 2 = a content share off the interpolated polynomial. Either one means
  // the sharing is unusable; the dealer is disqualified below and every
  // affected share polynomial stays the default zero — degradation instead
  // of an abort, per the paper's convention.
  std::vector<std::uint8_t> finalize_fault(n, 0);
  net_.for_each_party([&](net::PartyId d) {
    const std::size_t m = batches[d].size();
    if (m == 0 || !result.qualified[d]) return;
    // The content honest parties (those without a private conflict) are
    // the same for every index k of this dealer's batch, so the Lagrange
    // basis polynomials L_p(y) of the first t + 1 of them are computed
    // once: g(y) = sum_p y_p * L_p(y).
    std::vector<net::PartyId> content;
    std::vector<Fld> xs;
    for (net::PartyId p = 0; p < n; ++p) {
      if (net_.is_corrupt(p) || ctx.conflicted[p][d]) continue;
      content.push_back(p);
      xs.push_back(eval_point<64>(p));
    }
    if (content.size() < t + 1) {
      finalize_fault[d] = 1;
      return;
    }
    std::vector<Fld> denoms(t + 1, Fld::one());
    for (std::size_t i = 0; i <= t; ++i)
      for (std::size_t jj = 0; jj <= t; ++jj)
        if (jj != i) denoms[i] *= xs[i] - xs[jj];
    ff::batch_inverse(std::span<Fld>(denoms));  // one inversion for the basis
    std::vector<Poly> basis;
    basis.reserve(t + 1);
    for (std::size_t i = 0; i <= t; ++i) {
      Poly b = Poly::constant(Fld::one());
      for (std::size_t jj = 0; jj <= t; ++jj) {
        if (jj == i) continue;
        b = b * Poly{{xs[jj], Fld::one()}};
      }
      basis.push_back(denoms[i] * b);
    }
    // Interpolate the committed share polynomials g(y) = F(0, y) for the
    // whole batch at once: a party's final share of index k is its slice
    // evaluated at y = 0 — exactly the x^0 column of its slices, gathered
    // into `yrow` — so g's coefficient planes are t + 1 span axpys, and the
    // consistency sweep (every other content honest share lies on g, the
    // qualification invariant) is one batched Horner per tail party.
    // g accumulates straight into the dealer's zeroed pool columns.
    const auto gplane = [&](std::size_t c) {
      return pools_[d].plane(c).subspan(base[d], m);
    };
    Recycled yrow(m), pred(m);
    for (std::size_t i = 0; i <= t; ++i) {
      ctx.recv[content[i]][d].column(0, 0, *yrow);
      const auto& bc = basis[i].coeffs();
      for (std::size_t c = 0; c < bc.size(); ++c)
        ff::batch::axpy<64>(bc[c], std::span<const Fld>(*yrow), gplane(c));
    }
    std::vector<std::uint8_t> ok_k(m, 1);
    for (std::size_t i = t + 1; i < content.size(); ++i) {
      pools_[d].eval_range(xs[i], base[d], *pred);
      ctx.recv[content[i]][d].column(0, 0, *yrow);
      for (std::size_t k = 0; k < m; ++k)
        if ((*pred)[k] != (*yrow)[k]) ok_k[k] = 0;
    }
    // Inconsistent columns go back to the default zero and mark the dealer
    // faulty (same degradation as before).
    for (std::size_t k = 0; k < m; ++k) {
      if (ok_k[k]) continue;
      finalize_fault[d] = 2;
      for (std::size_t c = 0; c <= t; ++c) gplane(c)[k] = Fld::zero();
    }
  });
  for (net::PartyId d : ctx.dealers) {
    if (finalize_fault[d] == 0) continue;
    result.qualified[d] = false;
    qualified_[d] = false;
    net_.blame(net::kPublicBlame, d,
               finalize_fault[d] == 1 ? "vss.finalize.too_few_content_parties"
                                      : "vss.finalize.inconsistent_shares");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reconstruction
// ---------------------------------------------------------------------------

std::vector<SharePool> BivariateEngine::fold(
    std::span<const std::vector<LinComb>* const> lists) const {
  // Chunks of consecutive values of one list, cut once they hold
  // kReconChunk terms, so a long value (a round-B zero test) is a chunk of
  // its own and short ones share one.
  struct Chunk {
    std::size_t list, lo, hi;
  };
  std::vector<Chunk> chunks;
  std::vector<SharePool> blocks(lists.size());
  for (std::size_t r = 0; r < lists.size(); ++r) {
    const std::vector<LinComb>& values = *lists[r];
    blocks[r].configure(profile_.t + 1);
    blocks[r].append(values.size(), /*zero=*/false);  // the fold writes all
    std::size_t lo = 0, terms = 0;
    for (std::size_t vi = 0; vi < values.size(); ++vi) {
      terms += values[vi].terms().size() + 1;
      if (terms < kReconChunk && vi + 1 < values.size()) continue;
      chunks.push_back({r, lo, vi + 1});
      lo = vi + 1;
      terms = 0;
    }
  }
  ThreadPool::instance().parallel_for(
      0, chunks.size(), net_.threads(), [&](std::size_t ci) {
        const Chunk& chunk = chunks[ci];
        SharePool& block = blocks[chunk.list];
        std::vector<Fld> weights, gathered;
        for (std::size_t vi = chunk.lo; vi < chunk.hi; ++vi) {
          const LinComb& v = (*lists[chunk.list])[vi];
          const auto& terms = v.terms();
          weights.resize(terms.size());
          gathered.resize(terms.size());
          for (std::size_t k = 0; k < terms.size(); ++k) {
            const SharingRef ref = terms[k].first;
            GFOR14_EXPECTS(ref.dealer < net_.n());
            GFOR14_EXPECTS(ref.index < pools_[ref.dealer].count());
            weights[k] = terms[k].second;
          }
          // Coefficient c of the value's share polynomial is the
          // combination of every term's x^c coefficient: one gather and one
          // dot per plane.
          for (std::size_t c = 0; c <= profile_.t; ++c) {
            for (std::size_t k = 0; k < terms.size(); ++k)
              gathered[k] = pools_[terms[k].first.dealer].plane(c)
                                [terms[k].first.index];
            block.plane(c)[vi] = ff::batch::dot(
                std::span<const Fld>(weights), std::span<const Fld>(gathered));
          }
          block.plane(0)[vi] += v.constant_term();
        }
      });
  return blocks;
}

Fld BivariateEngine::committed_value(const LinComb& v) const {
  Fld acc = v.constant_term();
  for (const auto& [ref, coeff] : v.terms()) {
    GFOR14_EXPECTS(ref.dealer < net_.n());
    GFOR14_EXPECTS(ref.index < pools_[ref.dealer].count());
    // The committed secret is g(0) — the x^0 pool plane, no Horner needed.
    acc += coeff * pools_[ref.dealer].plane(0)[ref.index];
  }
  return acc;
}

std::vector<Fld> BivariateEngine::decode_received(
    const SharePool& folded,
    std::span<const std::optional<std::span<const Fld>>> per_sender,
    net::PartyId self) {
  const std::size_t n = net_.n();
  const std::size_t t = profile_.t;
  const std::size_t nvalues = folded.count();
  const bool ic = profile_.recon == ReconMode::kAuthenticated;
  std::vector<Fld> out(nvalues, Fld::zero());
  std::vector<Fld> xs;
  std::vector<net::PartyId> present;
  for (net::PartyId i = 0; i < n; ++i) {
    if (!per_sender[i]) continue;
    present.push_back(i);
    xs.push_back(eval_point<64>(i));
  }
  const std::size_t navail = present.size();
  if (!ic && navail < t + 1) {
    // Fewer shares than the degree bound: no interpolation is possible, so
    // every value degrades to the canonical default (zero) instead of
    // aborting the honest viewer; the absent senders earn blame records.
    for (net::PartyId i = 0; i < n; ++i)
      if (!per_sender[i])
        net_.blame(net::kPublicBlame, i, "vss.recon.missing_share");
    return out;
  }
  // One decode for both modes. The consistency sweep interpolates the first
  // t + 1 present shares at zero (the head) and checks every other present
  // share against the head; a value whose shares all lie on it takes the
  // head's value. The rest are disputed and go to the mode's fallback.
  // Berlekamp–Welch would return exactly an all-consistent polynomial, so
  // BGW trusts the sweep from t + 1 shares. The IC walk interpolates t + 1
  // shares equal to the committed ones; the head is that polynomial once
  // t + 1 of the present shares are correct, which 2t + 1 present shares
  // with at most t bad senders guarantee (n - t do not: at n = 6, t = 2,
  // two bad of four present shares can lie on a wrong curve through the
  // two correct ones). Below its minimum every value is disputed.
  const bool sweep = navail >= (ic ? 2 * t + 1 : t + 1);
  auto& lcache = LagrangeCache::instance();
  const std::vector<Fld>* lambda0 = nullptr;
  std::vector<const std::vector<Fld>*> tail_rows;
  if (sweep) {
    // The head's Lagrange rows at zero and at every tail point, once per
    // call: head(0) and head(x_i) are then span axpys over the shares.
    const std::span<const Fld> head_x(xs.data(), t + 1);
    lambda0 = &lcache.coefficients(head_x, Fld::zero());
    for (std::size_t i = t + 1; i < navail; ++i)
      tail_rows.push_back(&lcache.coefficients(head_x, xs[i]));
  }
  const std::size_t max_errors = navail > t ? (navail - t - 1) / 2 : 0;
  const std::size_t need = t + 1;
  GFOR14_EXPECTS(!ic || n <= 64);  // fallback accept sets are sender masks
  // Chunks of values split across lanes; each sender's revealed vector is
  // contiguous over the value index, so the sweep is t + 1 span axpys per
  // row (exact arithmetic: bit-identical to per-value dots).
  const std::size_t nchunks =
      (nvalues + kReconChunk - 1) / kReconChunk;
  ThreadPool::instance().parallel_for(
      0, nchunks, net_.threads(), [&](std::size_t ci) {
        const std::size_t lo = ci * kReconChunk;
        const std::size_t len = std::min(kReconChunk, nvalues - lo);
        const auto row = [&](std::size_t i) {
          return std::span<const Fld>(per_sender[present[i]]->data() + lo,
                                      len);
        };
        std::vector<std::uint8_t> ok(len, sweep ? 1 : 0);
        if (sweep) {
          const std::span<Fld> dst(out.data() + lo, len);
          for (std::size_t i = 0; i <= t; ++i)
            ff::batch::axpy<64>((*lambda0)[i], row(i), dst);
          std::vector<Fld> pred(len);
          for (std::size_t j = 0; j < tail_rows.size(); ++j) {
            std::fill(pred.begin(), pred.end(), Fld::zero());
            for (std::size_t i = 0; i <= t; ++i)
              ff::batch::axpy<64>((*tail_rows[j])[i], row(i),
                                  std::span<Fld>(pred));
            const std::span<const Fld> tail = row(t + 1 + j);
            for (std::size_t k = 0; k < len; ++k)
              if (pred[k] != tail[k]) ok[k] = 0;
          }
        }
        std::vector<std::size_t> disputed;
        for (std::size_t k = 0; k < len; ++k)
          if (!ok[k]) disputed.push_back(lo + k);
        if (disputed.empty()) return;
        recon_fallback_values_->add(disputed.size());
        if (!ic) {
          std::vector<Fld> ys(navail);
          for (std::size_t vi : disputed) {
            for (std::size_t i = 0; i < navail; ++i)
              ys[i] = (*per_sender[present[i]])[vi];
            auto decoded = berlekamp_welch(xs, ys, t, max_errors);
            // No decode keeps the canonical default (zero).
            out[vi] = decoded ? decoded->eval(Fld::zero()) : Fld::zero();
          }
          return;
        }
        // Idealized IC walk over the disputed values: senders in index
        // order, a revealed share accepted iff it equals the committed share
        // (the folded polynomial at the sender's point; the decoder's own
        // shares are committed already), until each value holds t + 1
        // accepts. Accept sets are flat: a (t + 1)-wide row of accepted
        // values, a count and a sender mask per value.
        const std::size_t m = disputed.size();
        std::vector<Fld> acc_vals(m * need);
        std::vector<std::uint8_t> acc_count(m, 0);
        std::vector<std::uint64_t> acc_mask(m, 0);
        std::size_t unfinished = m;
        for (net::PartyId i = 0; i < n && unfinished > 0; ++i) {
          if (!per_sender[i]) continue;
          const Fld alpha = eval_point<64>(i);
          for (std::size_t k = 0; k < m; ++k) {
            const Fld revealed = (*per_sender[i])[disputed[k]];
            const std::size_t c = acc_count[k];
            if (c == need || (i != self &&
                              revealed != folded.eval_one(disputed[k], alpha)))
              continue;
            acc_vals[k * need + c] = revealed;
            acc_mask[k] |= std::uint64_t{1} << i;
            acc_count[k] = static_cast<std::uint8_t>(c + 1);
            if (c + 1 == need) --unfinished;
          }
        }
        // Accept sets repeat across values (usually one per chunk), so each
        // distinct set's Lagrange row is resolved once.
        std::vector<std::pair<std::uint64_t, const std::vector<Fld>*>> sets;
        std::vector<Fld> set_x;
        for (std::size_t k = 0; k < m; ++k) {
          Fld& value = out[disputed[k]];
          value = Fld::zero();  // too few accepts: the canonical default
          if (acc_count[k] < need) continue;
          auto s = std::find_if(sets.begin(), sets.end(), [&](const auto& e) {
            return e.first == acc_mask[k];
          });
          if (s == sets.end()) {
            set_x.clear();
            for (net::PartyId i = 0; i < n; ++i)
              if ((acc_mask[k] >> i) & 1) set_x.push_back(eval_point<64>(i));
            sets.emplace_back(acc_mask[k],
                              &lcache.coefficients(set_x, Fld::zero()));
            s = sets.end() - 1;
          }
          value = ff::dot(std::span<const Fld>(*s->second),
                          std::span<const Fld>(acc_vals.data() + k * need,
                                               need));
        }
      });
  return out;
}

std::vector<Fld> BivariateEngine::reconstruct_public(
    const std::vector<LinComb>& values) {
  const std::size_t n = net_.n();
  trace::Span span("vss.reconstruct_public", net_);
  span.metric("values", static_cast<double>(values.size()));
  // Decode from the viewpoint of the lowest-indexed honest party (all honest
  // parties derive the same values — equivocated or corrupted shares are
  // rejected receiver-side).
  net::PartyId viewer = 0;
  while (viewer < n && net_.is_corrupt(viewer)) ++viewer;
  GFOR14_EXPECTS(viewer < n);
  // The values are folded once, for every sender and the decoder alike;
  // each sender's reveal vector is then one span Horner at its point, run
  // on its own lane. The viewer keeps its own vector for the decode.
  const std::vector<LinComb>* list = &values;
  const SharePool folded = std::move(fold({&list, 1})[0]);
  std::vector<Fld> own;
  net_.run_round([&](net::PartyId i, net::RoundLane& lane) {
    net::Payload payload(values.size());
    charge_share_buffer(values.size());
    folded.eval_range(eval_point<64>(i), 0, payload);
    for (net::PartyId j = 0; j < n; ++j)
      if (i != j) lane.send(j, payload);
    if (i == viewer) own = std::move(payload);
  });
  // The decoder reads the delivered payloads in place (views stay valid
  // until the next round).
  std::vector<std::optional<std::span<const Fld>>> per_sender(n);
  for (net::PartyId i = 0; i < n; ++i) {
    if (i == viewer) {
      per_sender[i] = std::span<const Fld>(own);
      continue;
    }
    const auto& msgs = net_.delivered().p2p[viewer][i];
    if (!msgs.empty() && msgs.front().size() == values.size())
      per_sender[i] = std::span<const Fld>(msgs.front());
  }
  return decode_received(folded, per_sender, viewer);
}

std::vector<Fld> BivariateEngine::reconstruct_private(
    net::PartyId receiver, const std::vector<LinComb>& values) {
  return reconstruct_private_multi({{receiver, values}})[0];
}

std::vector<std::vector<Fld>> BivariateEngine::reconstruct_private_multi(
    const std::vector<PrivateRequest>& requests) {
  const std::size_t n = net_.n();
  trace::Span span("vss.reconstruct_private", net_);
  span.metric("requests", static_cast<double>(requests.size()));
  std::vector<const std::vector<LinComb>*> lists;
  lists.reserve(requests.size());
  for (const auto& req : requests) {
    GFOR14_EXPECTS(req.receiver < n);
    lists.push_back(&req.values);
  }
  // Every request is folded in one pass, as in reconstruct_public.
  const std::vector<SharePool> folded = fold(lists);
  // Sender-major iteration (each sender walks the requests in order) keeps
  // every (sender, receiver) channel's message sequence in request order —
  // exactly what the slot-indexed inbox reads below rely on — while letting
  // each sender evaluate its committed shares on its own lane.
  net_.run_round([&](net::PartyId i, net::RoundLane& lane) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      if (i == requests[r].receiver) continue;
      net::Payload payload(folded[r].count());
      charge_share_buffer(payload.size());
      folded[r].eval_range(eval_point<64>(i), 0, payload);
      lane.send(requests[r].receiver, std::move(payload));
    }
  });
  // Per receiver, messages arrive in request order (FIFO per channel), so
  // the r-th request toward a receiver reads that receiver's r-th inbox
  // entry from each sender.
  std::vector<std::size_t> seen_for_receiver(n, 0);
  std::vector<std::vector<Fld>> out;
  out.reserve(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const PrivateRequest& req = requests[r];
    const std::size_t slot = seen_for_receiver[req.receiver]++;
    std::vector<Fld> own(req.values.size());
    folded[r].eval_range(eval_point<64>(req.receiver), 0, own);
    std::vector<std::optional<std::span<const Fld>>> per_sender(n);
    for (net::PartyId i = 0; i < n; ++i) {
      if (i == req.receiver) {
        per_sender[i] = std::span<const Fld>(own);
        continue;
      }
      const auto& msgs = net_.delivered().p2p[req.receiver][i];
      if (slot < msgs.size() && msgs[slot].size() == req.values.size())
        per_sender[i] = std::span<const Fld>(msgs[slot]);
    }
    out.push_back(decode_received(folded[r], per_sender, req.receiver));
  }
  return out;
}

}  // namespace gfor14::vss
