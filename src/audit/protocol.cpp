#include "audit/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "audit/serialize.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"
#include "poly/polynomial.hpp"
#include "primitives/keccak256.hpp"

namespace dsaudit::audit {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

KeyPair keygen(std::size_t s, primitives::SecureRng& rng) {
  if (s == 0) throw std::invalid_argument("keygen: s must be >= 1");
  KeyPair kp;
  kp.sk.x = Fr::random(rng);
  kp.sk.alpha = Fr::random(rng);
  while (kp.sk.x.is_zero()) kp.sk.x = Fr::random(rng);
  while (kp.sk.alpha.is_zero()) kp.sk.alpha = Fr::random(rng);

  kp.pk.s = s;
  kp.pk.epsilon = G2::generator().mul(kp.sk.x);
  kp.pk.delta = G2::generator().mul(kp.sk.alpha * kp.sk.x);
  // Powers g1^{alpha^j}: j = 0..s-2 suffice for the prover's quotient
  // commitment (degree <= s-2). For s = 1 we still publish g1 (= alpha^0)
  // so the tag-acceptance check has a base point.
  std::size_t count = PublicKey::alpha_power_count(s);
  kp.pk.g1_alpha_powers.reserve(count);
  Fr power = Fr::one();
  for (std::size_t j = 0; j < count; ++j) {
    kp.pk.g1_alpha_powers.push_back(curve::g1_mul_generator(power));
    power *= kp.sk.alpha;
  }
  kp.pk.e_g1_epsilon = pairing::pairing(G1::generator(), kp.pk.epsilon);
  return kp;
}

FileTag generate_tags(const SecretKey& sk, const PublicKey& pk,
                      const storage::EncodedFile& file, const Fr& name,
                      unsigned threads) {
  if (file.s != pk.s) {
    throw std::invalid_argument("generate_tags: file encoded with different s");
  }
  FileTag tag;
  tag.name = name;
  tag.s = file.s;
  tag.num_chunks = file.num_chunks();
  tag.sigmas.resize(tag.num_chunks);

  auto worker = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // M_i(alpha) by Horner — the owner knows alpha, so no MSM is needed.
      Fr m_alpha = Fr::zero();
      const auto& chunk = file.chunks[i];
      for (std::size_t l = chunk.size(); l-- > 0;) {
        m_alpha = m_alpha * sk.alpha + chunk[l];
      }
      // sigma_i = (g1^{M_i(alpha)} * H(name||i))^x
      //         = g1^{x * M_i(alpha)} + [x] H(name||i).
      G1 data_part = curve::g1_mul_generator(m_alpha * sk.x);
      G1 index_part = chunk_hash(name, i).mul(sk.x);
      tag.sigmas[i] = data_part + index_part;
    }
  };

  if (threads <= 1 || tag.num_chunks < 2) {
    worker(0, tag.num_chunks);
  } else {
    // Chunk tags are independent; the shared pool does the range split. The
    // caller's `threads` caps the chunk count so a small request on a wide
    // pool still honours the paper's per-thread-count measurements.
    parallel::parallel_for_ranges(tag.num_chunks, worker, threads);
  }
  return tag;
}

std::shared_ptr<const ProverKey> ProverKey::build(
    const PublicKey& pk, std::size_t max_table_powers) {
  std::shared_ptr<ProverKey> key(new ProverKey);
  key->e_g1_epsilon_ = pk.e_g1_epsilon;
  if (!pk.e_g1_epsilon.is_zero()) key->comb_ = ff::GtComb(pk.e_g1_epsilon);
  const auto& powers = pk.g1_alpha_powers;
  key->powers_ = powers;
  if (powers.empty()) return key;
  if (powers.size() > max_table_powers) {
    key->shifted_ = curve::msm_precompute<G1>(powers);
    return key;
  }
  key->gen0_ = powers[0] == G1::generator();
  key->tables_.reserve(powers.size());
  for (std::size_t j = key->gen0_ ? 1 : 0; j < powers.size(); ++j) {
    key->tables_.emplace_back(powers[j], kPsiTableWidth);
  }
  return key;
}

G1 ProverKey::psi(std::span<const Fr> q) const {
  if (q.size() > powers_.size()) {
    throw std::invalid_argument("ProverKey::psi: more coefficients than powers");
  }
  if (shifted_) return curve::msm_precomputed(*shifted_, q);
  G1 acc = G1::infinity();
  for (std::size_t j = 0; j < q.size(); ++j) {
    if (gen0_ && j == 0) {
      curve::g1_generator_table().add_mul(acc, q[0]);
    } else {
      tables_[gen0_ ? j - 1 : j].add_mul(acc, q[j]);
    }
  }
  return acc;
}

Fp12 ProverKey::epsilon_pow(const ff::U256& e) const {
  return comb_.empty() ? e_g1_epsilon_.cyclotomic_pow_u256(e) : comb_.pow(e);
}

bool ProverKey::matches(const PublicKey& pk) const {
  return pk.g1_alpha_powers == powers_ && pk.e_g1_epsilon == e_g1_epsilon_;
}

std::size_t ProverKey::bytes() const {
  std::size_t total = comb_.bytes();
  if (shifted_) total += shifted_->pts.size() * sizeof(G1::Affine);
  for (const auto& t : tables_) total += t.bytes();
  return total;
}

Prover::Prover(const PublicKey& pk, const storage::EncodedFile& file,
               const FileTag& tag, std::shared_ptr<const ProverKey> key,
               bool prepare_sigma)
    : pk_(pk), file_(file), tag_(tag), psi_key_(std::move(key)) {
  if (file.s != pk.s || tag.num_chunks != file.num_chunks()) {
    throw std::invalid_argument("Prover: inconsistent pk/file/tag");
  }
  if (psi_key_ && !psi_key_->matches(pk)) {
    throw std::invalid_argument("Prover: ProverKey built for another key");
  }
  if (prepare_sigma && tag.sigmas.size() >= 2) {
    sigma_key_ = std::make_shared<const curve::MsmBasesTable<G1>>(
        curve::msm_precompute<G1>(tag.sigmas));
  }
}

Prover::Prover(const PublicKey& pk, const storage::EncodedFile& file,
               const FileTag& tag, bool prepare_psi, bool prepare_sigma)
    : Prover(pk, file, tag, prepare_psi ? ProverKey::build(pk) : nullptr,
             prepare_sigma) {}

Prover::Core Prover::core(const Challenge& chal, ProverTimings* timings) const {
  auto t0 = Clock::now();
  ExpandedChallenge ex = expand_challenge(chal, file_.num_chunks());
  const std::size_t k = ex.indices.size();
  const std::size_t s = pk_.s;

  // --- Z_p phase: aggregate P_k(x) = sum_j c_j M_{i_j}(x), then the KZG
  // quotient and evaluation. The per-chunk scaled additions shard across the
  // pool with one partial accumulator per range; modular addition is exact
  // and associative, so the ordered recombination matches the sequential sum.
  std::vector<Fr> p(s, Fr::zero());
  {
    std::mutex merge_mutex;
    parallel::parallel_for_ranges(k, [&](std::size_t begin, std::size_t end) {
      std::vector<Fr> part(s, Fr::zero());
      for (std::size_t j = begin; j < end; ++j) {
        const auto& chunk = file_.chunks[ex.indices[j]];
        const Fr& c = ex.coefficients[j];
        for (std::size_t l = 0; l < s; ++l) part[l] += c * chunk[l];
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      for (std::size_t l = 0; l < s; ++l) p[l] += part[l];
    });
  }
  poly::Polynomial pk_poly(std::move(p));
  auto [quotient, y] = pk_poly.divide_by_linear(chal.r);
  double zp = ms_since(t0);

  // --- ECC phase: the two MSMs. The sigma MSM runs as a subset MSM over the
  // prepared tag-sigma table when the ctor built one, and psi through the
  // ProverKey when the prover has one (both bit-identical to the cold MSMs,
  // which stay for one-shot provers and as the oracle).
  auto t1 = Clock::now();
  G1 points[2];  // sigma, psi
  if (sigma_key_) {
    points[0] = curve::msm_precomputed(*sigma_key_, ex.indices, ex.coefficients);
  } else {
    std::vector<G1> sigma_pts(k);
    for (std::size_t j = 0; j < k; ++j) sigma_pts[j] = tag_.sigmas[ex.indices[j]];
    points[0] = curve::msm<G1>(sigma_pts, ex.coefficients);
  }
  auto qc = quotient.coefficients();
  if (!qc.empty()) {
    if (qc.size() > pk_.g1_alpha_powers.size()) {
      throw std::logic_error("Prover: quotient exceeds SRS (corrupt input?)");
    }
    points[1] = psi_key_ ? psi_key_->psi(qc)
                         : curve::msm<G1>(
                               std::span<const G1>(pk_.g1_alpha_powers.data(),
                                                   qc.size()),
                               qc);
  }
  const auto affine = G1::batch_to_affine(points);
  const Core c{affine[0], y, affine[1]};
  if (timings) {
    timings->zp_ms = zp;
    timings->ecc_ms = ms_since(t1);
  }
  return c;
}

ProofBasic Prover::prove(const Challenge& chal, ProverTimings* timings) const {
  Core c = core(chal, timings);
  return ProofBasic{c.sigma, c.y, c.psi};
}

ProofPrivate Prover::prove_private(const Challenge& chal,
                                   primitives::SecureRng& rng,
                                   ProverTimings* timings) const {
  Core c = core(chal, timings);
  auto t0 = Clock::now();
  // Sigma-protocol hiding (§V-D step 1): commit R = e(g1, eps)^z, derive the
  // challenge-independent mask zeta = H'(R), publish y' = zeta*y + z.
  Fr z = Fr::random(rng);
  // e(g1, eps) is a GT element, so the key's comb or, without a key, the
  // cyclotomic ladder applies; both give the same element.
  const ff::U256 ze = z.to_u256();
  Fp12 big_r = psi_key_ ? psi_key_->epsilon_pow(ze)
                        : pk_.e_g1_epsilon.cyclotomic_pow_u256(ze);
  Fr zeta = hash_gt_to_fr(big_r);
  Fr y_prime = zeta * c.y + z;
  if (timings) timings->gt_ms = ms_since(t0);
  return ProofPrivate{c.sigma, y_prime, c.psi, big_r};
}

namespace {

/// Content hash of the verifying key's two G2 points (affine coordinates
/// with an infinity flag byte each) — the settlement engine's grouping key.
std::array<std::uint8_t, 32> key_id_of(const G2& epsilon, const G2& delta) {
  std::array<std::uint8_t, 258> buf{};
  auto put = [&buf](const G2& q, std::size_t off) {
    if (q.is_infinity()) {
      buf[off] = 1;
      return;
    }
    auto [x, y] = q.to_affine();
    auto xb = x.to_bytes();
    auto yb = y.to_bytes();
    std::memcpy(&buf[off + 1], xb.data(), xb.size());
    std::memcpy(&buf[off + 1 + xb.size()], yb.data(), yb.size());
  };
  put(epsilon, 0);
  put(delta, 129);
  return primitives::Keccak256::hash(
      std::span<const std::uint8_t>(buf.data(), buf.size()));
}

/// Settles one round through verify_settlement, the one implementation of
/// the Eq. 1 / Eq. 2 checks: a one-instance batch draws no weights (the
/// all-zero seed is never read) and runs its one round at unit weight.
/// `file` may be null (the engine then hashes chunks from name/num_chunks).
template <typename Proof>
bool settle_one(const Verifier* verifier, const PreparedFile* file,
                const Fr& name, std::size_t num_chunks, const Challenge& chal,
                const Proof& proof) {
  SettlementInstance inst;
  inst.verifier = verifier;
  inst.file = file;
  inst.name = name;
  inst.num_chunks = num_chunks;
  inst.challenge = chal;
  if constexpr (std::is_same_v<Proof, ProofBasic>) {
    inst.basic = proof;
  } else {
    inst.priv = proof;
  }
  return verify_settlement(std::span<const SettlementInstance>(&inst, 1), {})
      .ok[0];
}

}  // namespace

Verifier::Verifier(const PublicKey& pk)
    : pk_(pk),
      g2_(G2::generator()),
      epsilon_(pk.epsilon),
      delta_(pk.delta),
      key_id_(key_id_of(pk.epsilon, pk.delta)),
      pk_bytes_(serialize(pk, !pk.e_g1_epsilon.is_zero())) {}

std::span<const std::uint8_t> Verifier::pk_bytes(bool with_privacy) const {
  const std::size_t n = PublicKey::serialized_size_for(pk_.s, with_privacy);
  if (n > pk_bytes_.size()) {
    throw std::invalid_argument("Verifier::pk_bytes: key has no e(g1, epsilon)");
  }
  return std::span<const std::uint8_t>(pk_bytes_).first(n);
}

bool Verifier::verify_tags(const storage::EncodedFile& file,
                           const FileTag& tag) const {
  if (file.s != pk_.s || tag.s != pk_.s) return false;
  if (tag.num_chunks != file.num_chunks() || tag.sigmas.size() != tag.num_chunks) {
    return false;
  }
  const std::size_t d = tag.num_chunks;
  const std::size_t s = pk_.s;
  // Random-weight batch: sum_i rho_i * [check_i] == 0 catches any bad
  // authenticator except with probability ~1/r. The degree-(s-1) coefficient
  // has no published g1 power; it is folded through delta = g2^{alpha x}
  // against g1^{alpha^{s-2}} instead.
  auto rng = primitives::SecureRng::from_os();
  std::vector<Fr> rho(d);
  for (auto& w : rho) w = Fr::random(rng);

  G1 sigma_agg = curve::msm<G1>(tag.sigmas, rho);

  // Weighted low coefficients (paired with epsilon) and, for s >= 2, the
  // weighted top coefficient (paired with delta).
  std::size_t low_count = s >= 2 ? s - 1 : 1;
  std::vector<Fr> low(low_count, Fr::zero());
  Fr top = Fr::zero();
  for (std::size_t i = 0; i < d; ++i) {
    const auto& chunk = file.chunks[i];
    if (s >= 2) {
      for (std::size_t j = 0; j + 1 < s; ++j) low[j] += rho[i] * chunk[j];
      top += rho[i] * chunk[s - 1];
    } else {
      low[0] += rho[i] * chunk[0];
    }
  }
  G1 low_pt = curve::msm<G1>(pk_.g1_alpha_powers, low);
  std::vector<G1> hashes(d);
  parallel::parallel_for_ranges(d, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hashes[i] = chunk_hash(tag.name, i);
    }
  });
  G1 chi = curve::msm<G1>(hashes, rho);

  std::vector<pairing::PreparedPair> pairs;
  pairs.reserve(3);
  pairs.push_back({sigma_agg, &g2_});
  pairs.push_back({-(low_pt + chi), &epsilon_});
  if (s >= 2 && !top.is_zero()) {
    pairs.push_back({-(pk_.g1_alpha_powers.back().mul(top)), &delta_});
  }
  return pairing::pairing_product_is_one(pairs);
}

bool Verifier::verify(const Fr& name, std::size_t num_chunks,
                      const Challenge& chal, const ProofBasic& proof) const {
  return settle_one(this, nullptr, name, num_chunks, chal, proof);
}

bool Verifier::verify(const PreparedFile& file, const Challenge& chal,
                      const ProofBasic& proof) const {
  return settle_one(this, &file, file.name, file.num_chunks, chal, proof);
}

bool Verifier::verify_private(const Fr& name, std::size_t num_chunks,
                              const Challenge& chal,
                              const ProofPrivate& proof) const {
  return settle_one(this, nullptr, name, num_chunks, chal, proof);
}

bool Verifier::verify_private(const PreparedFile& file, const Challenge& chal,
                              const ProofPrivate& proof) const {
  return settle_one(this, &file, file.name, file.num_chunks, chal, proof);
}

PreparedFile prepare_file(const Fr& name, std::size_t num_chunks) {
  PreparedFile pf;
  pf.name = name;
  pf.num_chunks = num_chunks;
  std::vector<G1> hashes(num_chunks);
  parallel::parallel_for_ranges(num_chunks,
                                [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t i = begin; i < end; ++i) {
                                    hashes[i] = chunk_hash(name, i);
                                  }
                                });
  pf.hashes = curve::msm_precompute<G1>(hashes);
  return pf;
}

namespace {

/// Per-instance pairing-equation components. Every instance's check is
///   basic:   e(s, g2) * e(e, eps) * e(d, delta) == 1
///   private: e(s, g2) * e(e, eps) * e(d, delta) * R == 1  (zeta folded in)
/// with s = zeta*sigma, e = (zeta*r)*psi - y*g - zeta*chi, d = -zeta*psi
/// (zeta = 1 for basic proofs). The batch check never materializes those
/// per-instance points: the zeta/challenge scalars ride the rho batch
/// weights into the per-slot MSMs — e.g. the eps slot aggregates
/// sum_i [rho_i zeta_i r_i] psi_i - [sum_i rho_i y_i] g - [rho_i zeta_i]
/// chi_i — so equation prep costs no arbitrary scalar muls at all; with the
/// GLV split those 254-bit folded weights run at half-length anyway. chi
/// itself is not a term member: it lives in verify_settlement's flat chi
/// slots, where the cold path keeps its chunk hashes unaggregated so their
/// coefficients fold into the same weights. A one-round range (a bisection
/// leaf or a single-instance batch) runs the same slot MSMs at unit weight,
/// which computes exactly that round's unweighted equation. The proof's
/// points, y and R stay in the instance; the terms point at them (104 B a
/// round), and the challenge scalar and verifier are read from it too.
struct SettleTerms {
  const G1::Affine* sigma = nullptr;  // null: implausible, never settled
  const G1::Affine* psi = nullptr;
  const Fr* y = nullptr;              // y (basic) or y' (private)
  const Fp12* big_r = nullptr;        // R for private instances, null for basic
  Fr zeta = Fr::one();    // hash_gt_to_fr(R) for private, 1 for basic
  Fr rho = Fr::one();     // random batch weight (one when unweighted)
  std::size_t key = 0;    // verifier-group ordinal
};

/// rho_i = low 16 bytes of Keccak(seed || 'w' || i). 128-bit weights halve
/// the full-scalar weighting work at a residual forgery probability of
/// ~2^-128 per batch.
Fr weight_at(const std::array<std::uint8_t, 32>& seed, std::uint64_t index) {
  constexpr std::size_t kWidth = 16;
  std::array<std::uint8_t, 41> buf;
  std::memcpy(buf.data(), seed.data(), 32);
  buf[32] = 'w';
  for (int b = 0; b < 8; ++b) {
    buf[33 + b] = static_cast<std::uint8_t>(index >> (8 * b));
  }
  auto h = primitives::Keccak256::hash(
      std::span<const std::uint8_t>(buf.data(), buf.size()));
  std::array<std::uint8_t, 32> wide{};
  std::copy(h.begin(), h.begin() + kWidth, wide.end() - kWidth);
  return Fr::from_be_bytes_mod(std::span<const std::uint8_t, 32>(wide));
}

}  // namespace

SettlementOutcome verify_settlement(std::span<const SettlementInstance> instances,
                                    const std::array<std::uint8_t, 32>& weight_seed,
                                    const SettlementOptions& options) {
  SettlementOutcome out;
  out.ok.assign(instances.size(), false);
  if (instances.empty()) return out;

  // A single-instance batch draws no random weights: its one round runs the
  // batch check at unit weight. This is the path Verifier::verify* and the
  // contract's per-round settlement take.
  //
  // chi = sum_s chi_sc[s] * chi_pts[s] over instance i's slots
  // [chi_off[i], chi_off[i + 1]): a prepared file's one msm_precomputed chi
  // with coefficient one, or on the cold path (file == nullptr) the k chunk
  // hashes H(name||i_j) with their challenge coefficients c_j. The batch
  // check folds those coefficients into its epsilon-slot weights, so a cold
  // chi is never aggregated on its own.
  std::size_t plausible = 0;
  std::vector<std::size_t> chi_off(instances.size() + 1, 0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const SettlementInstance& inst = instances[i];
    const bool shaped = inst.verifier != nullptr &&
                        inst.basic.has_value() != inst.priv.has_value();
    plausible += shaped;
    const std::size_t d_chunks = inst.file ? inst.file->num_chunks : inst.num_chunks;
    std::size_t slots = 0;
    if (shaped && d_chunks > 0 && inst.challenge.k > 0) {
      // expand_challenge samples min(k, d) distinct indices.
      slots = inst.file ? 1 : std::min<std::uint64_t>(inst.challenge.k, d_chunks);
    }
    chi_off[i + 1] = chi_off[i] + slots;
  }
  const bool need_weights = plausible > 1;
  std::vector<G1> chi_jac(chi_off.back());
  std::vector<Fr> chi_sc(chi_off.back());

  // Per-instance preparation — the chunk hashes (or a prepared file's chi)
  // and the zeta hash — is embarrassingly parallel; all scalar weighting is
  // deferred to the batch check's MSMs, so no arbitrary scalar muls happen
  // here.
  std::vector<SettleTerms> terms(instances.size());
  parallel::parallel_for_ranges(
      instances.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const SettlementInstance& inst = instances[i];
          SettleTerms& t = terms[i];
          const std::size_t at = chi_off[i];
          if (chi_off[i + 1] == at) continue;  // implausible shape or sizes
          const bool has_basic = inst.basic.has_value();
          if (!has_basic && inst.priv->big_r.is_zero()) continue;
          const std::size_t d_chunks =
              inst.file ? inst.file->num_chunks : inst.num_chunks;
          const ExpandedChallenge ex = expand_challenge(inst.challenge, d_chunks);
          if (inst.file) {
            chi_jac[at] = curve::msm_precomputed(inst.file->hashes, ex.indices,
                                                 ex.coefficients);
            chi_sc[at] = Fr::one();
          } else {
            if (ex.indices.size() != chi_off[i + 1] - at) {
              throw std::logic_error("verify_settlement: chi slot count");
            }
            parallel::parallel_for_ranges(
                ex.indices.size(), [&](std::size_t jb, std::size_t je) {
                  for (std::size_t j = jb; j < je; ++j) {
                    chi_jac[at + j] = chunk_hash(inst.name, ex.indices[j]);
                    chi_sc[at + j] = ex.coefficients[j];
                  }
                });
          }
          if (has_basic) {
            const ProofBasic& p = *inst.basic;
            t.sigma = &p.sigma;
            t.psi = &p.psi;
            t.y = &p.y;
          } else {
            const ProofPrivate& p = *inst.priv;
            t.sigma = &p.sigma;
            t.psi = &p.psi;
            t.y = &p.y_prime;
            t.zeta = hash_gt_to_fr(p.big_r);
            t.big_r = &p.big_r;
          }
          if (need_weights) t.rho = weight_at(weight_seed, i);
        }
      });
  // Every MSM below reads affine points: the proofs' are affine as decoded,
  // and the chi slots are normalized here with one inversion.
  const std::vector<G1::Affine> chi_pts = G1::batch_to_affine(chi_jac);
  std::vector<G1>().swap(chi_jac);

  // Group the valid instances by verifying-key content so same-key terms
  // share one epsilon/delta pairing pair even across distinct contracts.
  std::vector<const Verifier*> groups;
  std::map<std::array<std::uint8_t, 32>, std::size_t> ordinal;
  std::vector<std::size_t> idx;  // valid instance positions, input order
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].sigma == nullptr) continue;
    const Verifier* v = instances[i].verifier;
    auto [it, fresh] = ordinal.try_emplace(v->key_id(), groups.size());
    if (fresh) groups.push_back(v);
    terms[i].key = it->second;
    idx.push_back(i);
  }
  if (idx.empty()) return out;

  // The aggregate-settlement opening: the weighted psi aggregate the batch
  // check already folds into its eps/delta slots, materialized once as its
  // own G1 element so a window tx can post it in place of every per-round
  // psi. zeta rides along exactly as in the pairing slots, so the element
  // is committed to the private proofs' R values too.
  if (options.compute_aggregate_opening) {
    std::vector<G1::Affine> agg_pts;
    std::vector<Fr> agg_sc;
    agg_pts.reserve(idx.size());
    agg_sc.reserve(idx.size());
    for (std::size_t i : idx) {
      const SettleTerms& t = terms[i];
      agg_pts.push_back(*t.psi);
      agg_sc.push_back(t.rho * t.zeta);
    }
    out.aggregated_opening = curve::msm<G1>(agg_pts, agg_sc);
  }

  // One direct weighted aggregate check of a contiguous sub-range of `idx`:
  // the generator term is shared across every key, epsilon/delta aggregate
  // per key — 1 + 2*(#keys present) pairings, one final exponentiation. The
  // weighting itself runs batched: one MSM over the rho weights
  // per pairing slot instead of three scalar muls per round, and one shared
  // GT multi-exponentiation over every private R commitment in the range
  // instead of a per-round R^rho ladder (the old per-round GT exp was the
  // private batch's ~0.55 ms floor). Returns the range's GT value, the
  // product of its rounds' weighted terms; the range passes iff it is one.
  // A one-round range (a bisection leaf, or a one-instance batch) runs at
  // unit weight: its value is then that round's own unweighted Eq. 1 /
  // Eq. 2 value, so a leaf names its culprit by the round's own equation.
  auto check_batch = [&](std::size_t lo, std::size_t hi) {
    const std::size_t m = hi - lo;
    const bool unit = m == 1;
    ++(unit ? out.single_checks : out.batch_checks);
    std::vector<G1::Affine> sig_pts;
    std::vector<Fr> sig_sc;
    sig_pts.reserve(m);
    sig_sc.reserve(m);
    // eps slot per key: [rho zeta r] psi_i + sum_s [-rho zeta c_s] chi_s
    // over the instance's chi slots (its prepared chi with c = 1, or its
    // cold chunk hashes with their challenge coefficients), plus one shared
    // generator base carrying sum_i [-rho y_i]; delta slot per key:
    // [-rho zeta] psi_i. The folded weights are full 254-bit scalars, which
    // the MSM layer runs GLV-split.
    std::vector<std::vector<G1::Affine>> eps_pts(groups.size()),
        delta_pts(groups.size());
    std::vector<std::vector<Fr>> eps_sc(groups.size()), delta_sc(groups.size());
    std::vector<Fr> gen_sc(groups.size(), Fr::zero());
    std::vector<Fp12> gt_bases;
    std::vector<bigint::U256> gt_exps;
    // Size every slot exactly first: grown by doubling, the vectors would
    // hold up to twice the window's points.
    std::vector<std::size_t> rounds_of(groups.size(), 0), eps_of(groups.size(), 1);
    for (std::size_t j = lo; j < hi; ++j) {
      const std::size_t i = idx[j];
      ++rounds_of[terms[i].key];
      eps_of[terms[i].key] += 1 + chi_off[i + 1] - chi_off[i];
    }
    for (std::size_t k = 0; k < groups.size(); ++k) {
      eps_pts[k].reserve(eps_of[k]);
      eps_sc[k].reserve(eps_of[k]);
      delta_pts[k].reserve(rounds_of[k]);
      delta_sc[k].reserve(rounds_of[k]);
    }
    for (std::size_t j = lo; j < hi; ++j) {
      const std::size_t i = idx[j];
      const SettleTerms& t = terms[i];
      const Fr rho = unit ? Fr::one() : t.rho;
      const Fr rz = rho * t.zeta;
      sig_pts.push_back(*t.sigma);
      sig_sc.push_back(rz);
      eps_pts[t.key].push_back(*t.psi);
      eps_sc[t.key].push_back(rz * instances[i].challenge.r);
      for (std::size_t at = chi_off[i]; at < chi_off[i + 1]; ++at) {
        eps_pts[t.key].push_back(chi_pts[at]);
        eps_sc[t.key].push_back(-rz * chi_sc[at]);
      }
      gen_sc[t.key] = gen_sc[t.key] - rho * *t.y;
      delta_pts[t.key].push_back(*t.psi);
      delta_sc[t.key].push_back(-rz);
      if (t.big_r && !t.big_r->is_one()) {
        gt_bases.push_back(*t.big_r);
        gt_exps.push_back(rho.to_u256());
      }
    }
    std::vector<pairing::PreparedPair> pairs;
    pairs.reserve(1 + 2 * groups.size());
    pairs.push_back({curve::msm<G1>(sig_pts, sig_sc), &groups[0]->prepared_g2()});
    for (std::size_t k = 0; k < groups.size(); ++k) {
      // Untouched keys aggregate to infinity and cost no Miller chain.
      if (!eps_pts[k].empty()) {
        eps_pts[k].push_back(G1::generator().to_affine_point());
        eps_sc[k].push_back(gen_sc[k]);
      }
      pairs.push_back({curve::msm<G1>(eps_pts[k], eps_sc[k]),
                       &groups[k]->prepared_epsilon()});
      pairs.push_back({curve::msm<G1>(delta_pts[k], delta_sc[k]),
                       &groups[k]->prepared_delta()});
    }
    Fp12 gt = Fp12::multi_pow(gt_bases, gt_exps);
    Fp12 lhs = pairing::multi_pairing(std::span<const pairing::PreparedPair>(pairs));
    return lhs * gt;
  };

  // Settle recursively: a passing aggregate clears its whole range at once;
  // a failing one bisects, so each cheater is isolated by its one-round,
  // unit-weight check and honest rounds in the same block always settle
  // Pass. Law–Matt quick binary search: a range's value is the product of
  // its halves' values, so of a failing range only the left half is checked
  // directly and the right half's value is value * conj(left) — one Fp12
  // multiply, passed down as `known`. conj is the inverse because every
  // factor lies in GT (final-exponentiation outputs, and R, which gt_decode
  // subgroup-checks), so the derived value is, as a group element, the one
  // a direct check of the right half would compute.
  std::function<void(std::size_t, std::size_t, std::optional<Fp12>)> settle =
      [&](std::size_t lo, std::size_t hi, std::optional<Fp12> known) {
        const Fp12 value = known ? *known : check_batch(lo, hi);
        if (value.is_one()) {
          for (std::size_t j = lo; j < hi; ++j) out.ok[idx[j]] = true;
          return;
        }
        if (hi - lo == 1) return;  // a failing leaf: its round stays Fail
        const std::size_t mid = lo + (hi - lo) / 2;
        if (mid - lo == 1) {
          // A one-round left half is checked at unit weight, which yields no
          // weighted value to derive the right half from.
          settle(lo, mid, std::nullopt);
          settle(mid, hi, std::nullopt);
          return;
        }
        const Fp12 left = check_batch(lo, mid);
        ++out.derived_checks;
        settle(lo, mid, left);
        settle(mid, hi, value * left.conjugate());
      };
  settle(0, idx.size(), std::nullopt);
  return out;
}

std::array<std::uint8_t, 32> derive_settlement_seed(
    std::uint64_t nonce, std::uint64_t window_boundary,
    std::span<const std::array<std::uint8_t, 32>> transcripts) {
  std::vector<std::uint8_t> preimage(16 + 32 * transcripts.size());
  for (int b = 0; b < 8; ++b) {
    preimage[b] = static_cast<std::uint8_t>(nonce >> (8 * b));
    preimage[8 + b] = static_cast<std::uint8_t>(window_boundary >> (8 * b));
  }
  for (std::size_t j = 0; j < transcripts.size(); ++j) {
    std::memcpy(preimage.data() + 16 + 32 * j, transcripts[j].data(), 32);
  }
  return primitives::Keccak256::hash(
      std::span<const std::uint8_t>(preimage.data(), preimage.size()));
}

bool verify_settlement_aggregate(
    std::span<const SettlementInstance> instances,
    std::span<const std::array<std::uint8_t, 32>> transcripts,
    std::uint64_t expected_boundary, const AggregateSettlement& tx,
    const SettlementOptions& options) {
  if (tx.rounds != instances.size() || tx.rounds != transcripts.size() ||
      tx.rounds == 0) {
    return false;
  }
  if (tx.outcomes.size() != AggregateSettlement::bitmap_bytes(tx.rounds)) {
    return false;
  }
  // The boundary is part of the verifier's expectation, not the prover's
  // choice: a tx replayed against any other window refuses here.
  if (tx.window_boundary != expected_boundary) return false;
  // Bind the seed to the committed transcripts: the tx's seed must be the
  // honest derivation under its own nonce. A self-chosen seed — under which
  // colluding cheaters could pick errors that cancel in the weighted batch
  // check — cannot be presented as Keccak(nonce || boundary || transcripts)
  // for any feasible nonce.
  if (derive_settlement_seed(tx.seed_nonce, tx.window_boundary, transcripts) !=
      tx.weight_seed) {
    return false;
  }
  SettlementOptions opts = options;
  opts.compute_aggregate_opening = true;
  const SettlementOutcome res = verify_settlement(instances, tx.weight_seed, opts);
  // The posted opening must be exactly the weighted psi aggregate under the
  // derived seed: any substituted element changes the recomputation.
  if (!(res.aggregated_opening == tx.opening)) return false;
  for (std::uint64_t i = 0; i < tx.rounds; ++i) {
    if (tx.outcome(i) != res.ok[static_cast<std::size_t>(i)]) return false;
  }
  return true;
}

}  // namespace dsaudit::audit
