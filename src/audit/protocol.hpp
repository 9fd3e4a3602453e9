// KeyGen, tag generation, proving and verification — the paper's §V main
// protocol, both without on-chain privacy (Eq. 1) and with it (Eq. 2).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "audit/types.hpp"
#include "curve/fixed_base.hpp"
#include "curve/point.hpp"
#include "pairing/pairing.hpp"
#include "primitives/random.hpp"

namespace dsaudit::audit {

/// D's Initialize phase key generation. s is the storage/computation
/// trade-off parameter (extra provider storage is 1/s of the file).
KeyPair keygen(std::size_t s, primitives::SecureRng& rng);

/// D computes sigma_i = (g1^{M_i(alpha)} * H(name||i))^x for every chunk;
/// `threads` > 1 parallelizes across chunks (the paper's quad-core numbers).
FileTag generate_tags(const SecretKey& sk, const PublicKey& pk,
                      const storage::EncodedFile& file, const Fr& name,
                      unsigned threads = 1);

/// Phase timings for the Fig. 8 breakdown (milliseconds).
struct ProverTimings {
  double zp_ms = 0;   // finite-field work: P_k aggregation + quotient
  double ecc_ms = 0;  // curve work: the two MSMs
  double gt_ms = 0;   // privacy extras: R = e(g1,eps)^z and y'
};

/// Width of ProverKey's per-power compact tables: 16 signed digits in each
/// of 26 windows, 29,952 B a power and at most 52 mixed additions. w = 8
/// needs at most 32 but holds 147 KB a power, which a 16-key pool pays 16
/// times over (bench_scale's 100-owner row: +60% peak RSS at s = 4,
/// against +11% at w = 5).
inline constexpr unsigned kPsiTableWidth = 5;

/// Largest SRS power count that ProverKey::build serves with one compact
/// fixed-base table per power; above it the key holds one shared
/// shifted-base table. Set from bench_core_ops' BM_PsiMsm rows (us per psi
/// MSM over s - 1 powers, random quotients; one thread, 4-core shared
/// x86-64 host, median of 9 randomly interleaved repetitions):
///
///     s   powers   cold msm   per-power tables   shifted table
///     3      2        174            52                99
///     4      3        194            85               137
///     5      4        263           112               134
///     6      5        277           160               166
///    10      9        452           308               300
///    20     19        885           748               356
///
/// Per-power tables lead 1.9x at 2 powers and 1.2x at 4, and stop paying
/// at 5 (within noise of the shifted table), at 29,952 B a power against
/// ~2.4 KB. So 4: a keygen key's tables (power 0 on the generator table)
/// stay at most 90 KB.
inline constexpr std::size_t kPsiTableMaxPowers = 4;

/// The prover's per-key precomputation for the psi MSM, psi = sum_j q_j *
/// g1^{alpha^j} over the key's public SRS powers. Those bases are fixed per
/// key, so one ProverKey serves every prover of the key — every file, every
/// round — and NetworkSim keeps one beside each key's Verifier. Two forms:
///   - up to `max_table_powers` powers (default kPsiTableMaxPowers), one
///     compact GLV fixed-base table (curve::FixedBaseTable<G1>, width
///     kPsiTableWidth, 29,952 B) per power j >= 1; power 0 is g1 itself and
///     reads the process-wide generator table (a key whose power 0 is
///     another point gets a table for it too). A psi is then at most 52
///     mixed additions per power and no doublings. Build: ~416 additions
///     per power and one batch inversion;
///   - above that, one shifted-base curve::MsmBasesTable over all powers
///     (~2.4 KB and ~127 doublings per power).
/// Either form gives the same group element as the cold msm, which stays as
/// the oracle. The key also holds a Lim–Lee comb over pk.e_g1_epsilon for
/// the private proof's commitment R = e(g1, eps)^z (ff::GtComb, 98,304 B,
/// ~2 ms to build; 31 squarings and at most 32 multiplies a power,
/// against ~254 squarings for the ladder), and copies of the powers and
/// e(g1, eps), for matches().
class ProverKey {
 public:
  /// Callers take the default; BM_PsiMsm and the tests pass 0 or SIZE_MAX
  /// to time and check both forms at any s.
  static std::shared_ptr<const ProverKey> build(
      const PublicKey& pk, std::size_t max_table_powers = kPsiTableMaxPowers);

  /// sum_j q[j] * g1^{alpha^j}; q.size() must not exceed the power count.
  G1 psi(std::span<const Fr> q) const;
  /// e(g1, eps)^e, the same element as pk.e_g1_epsilon.pow_u256(e).
  Fp12 epsilon_pow(const ff::U256& e) const;
  /// True iff this key was built from exactly pk's SRS powers and e(g1, eps).
  bool matches(const PublicKey& pk) const;
  /// Memory held by the psi tables and the comb (the shared generator table
  /// not counted).
  std::size_t bytes() const;

 private:
  ProverKey() = default;

  std::vector<G1> powers_;  // pk's SRS powers, for matches()
  Fp12 e_g1_epsilon_;       // pk's e(g1, eps), for matches()
  ff::GtComb comb_;         // over e_g1_epsilon_; empty when it is zero
  bool gen0_ = false;       // power 0 is g1: the generator table serves it
  // One per power, starting at power 1 when gen0_, else at power 0.
  std::vector<curve::FixedBaseTable<G1>> tables_;
  std::optional<curve::MsmBasesTable<G1>> shifted_;
};

class Prover {
 public:
  /// Borrows pk, file and tag for the Prover's lifetime; the caller must
  /// keep them alive AND at stable addresses (beware std::vector
  /// reallocation of KeyPair/EncodedFile/FileTag holders). `key` is the
  /// shared ProverKey of pk (it must match; null runs the psi MSM cold and
  /// prove_private's R on the cyclotomic ladder).
  ///
  /// prepare_sigma additionally builds a shifted-base table over the tag
  /// sigmas, turning the sigma MSM into a table-driven subset MSM over the
  /// challenged indices (mirroring what PreparedFile does for the
  /// verifier's chi). Opt-in: the build costs ~127 doublings per chunk and
  /// ~positions * num_chunks * 144 bytes of memory, which only a prover
  /// serving many rounds of one file amortizes (NetworkSim does).
  Prover(const PublicKey& pk, const storage::EncodedFile& file,
         const FileTag& tag, std::shared_ptr<const ProverKey> key,
         bool prepare_sigma = false);
  /// The same with a private ProverKey built from pk when prepare_psi (at
  /// s <= kPsiTableMaxPowers + 1 up to ~90 KB and ~416 additions per power;
  /// above, ~2.4 KB and ~127 doublings per power; plus the 98 KB comb), or
  /// a cold psi MSM and ladder without it. Provers of one key should share
  /// a ProverKey through the constructor above instead.
  Prover(const PublicKey& pk, const storage::EncodedFile& file,
         const FileTag& tag, bool prepare_psi = true,
         bool prepare_sigma = false);

  /// Non-private response (Eq. 1 inputs).
  ProofBasic prove(const Challenge& chal, ProverTimings* timings = nullptr) const;

  /// Privacy-assured response (Eq. 2 inputs, §V-D).
  ProofPrivate prove_private(const Challenge& chal, primitives::SecureRng& rng,
                             ProverTimings* timings = nullptr) const;

 private:
  /// Shared non-private core: expands the challenge, aggregates
  /// P_k coefficients and sigma, computes psi and y = P_k(r); the two
  /// points come out affine, normalized together with one inversion.
  struct Core {
    G1::Affine sigma;
    Fr y;
    G1::Affine psi;
  };
  Core core(const Challenge& chal, ProverTimings* timings) const;

  const PublicKey& pk_;
  const storage::EncodedFile& file_;
  const FileTag& tag_;
  std::shared_ptr<const ProverKey> psi_key_;
  std::shared_ptr<const curve::MsmBasesTable<G1>> sigma_key_;
};

/// Per-file verification context: the d chunk hash points H(name||i) with a
/// shifted-base MSM table over them. Each round's chi = prod H(name||i)^{c_i}
/// becomes a table-driven subset MSM instead of d hash-to-curve evaluations
/// plus a cold MSM — with the prepared pairings, this is the other half of
/// making repeated rounds cheap. Build cost is one hash + ~254 doublings per
/// chunk; memory is ~positions * d * 72 bytes (a few MB per 10k chunks), paid
/// once per audited file (the contract holds one for its lifetime).
struct PreparedFile {
  // Identity of the file the table was built for. verify() trusts the
  // context it is handed (the hashes already encode the name), so callers
  // routing several audited files must key their lookup on this field — a
  // wrong context makes honest proofs fail with no other diagnostic.
  Fr name;
  std::size_t num_chunks = 0;
  curve::MsmBasesTable<G1> hashes;  // bases: H(name||i), i = 0..d-1
};
PreparedFile prepare_file(const Fr& name, std::size_t num_chunks);

/// The prepared verification engine for one public key: caches the Miller
/// line tables of the three fixed G2 points (g2, epsilon, delta) once and
/// routes all four audit checks through them. Every verification equation is
/// rearranged with e(-psi, delta * eps^{-r}) = e(-psi, delta) * e([r]psi,
/// eps), which moves the per-round challenge scalar to the cheap G1 side —
/// so no check ever pairs against a fresh G2 point or performs a G2 scalar
/// multiplication.
///
/// This is the one verification entry point: every check — S's tag
/// acceptance, a one-off Eq. 1/Eq. 2 verification, a contract's rounds —
/// goes through a Verifier the caller builds once per key and keeps (a
/// contract borrows one for its lifetime; construction prepares the three
/// G2 line tables, so building one per call repeats that work).
///
/// Borrows the PublicKey — the caller keeps it alive and at a stable
/// address, the same contract as Prover.
class Verifier {
 public:
  explicit Verifier(const PublicKey& pk);

  const PublicKey& pk() const { return pk_; }

  /// The key's on-chain encoding, serialize(pk, with_privacy), built once
  /// here rather than at every contract install: the basic encoding is the
  /// private one's prefix. Throws std::invalid_argument for with_privacy on
  /// a key without e(g1, epsilon) (decode_public_key's zero sentinel).
  std::span<const std::uint8_t> pk_bytes(bool with_privacy) const;

  /// S's acceptance check before acking the contract: every authenticator
  /// verifies against the public key (e(sigma_i, g2) == e(g1^{M_i(alpha)}
  /// H(name||i), epsilon), computed via the SRS without alpha). "the chance
  /// of D forging authenticators is negligible after this check".
  bool verify_tags(const storage::EncodedFile& file, const FileTag& tag) const;

  /// The smart contract's Eq. 1 check: a one-instance verify_settlement
  /// (3 prepared pairings, shared squarings, one final exp).
  bool verify(const Fr& name, std::size_t num_chunks, const Challenge& chal,
              const ProofBasic& proof) const;
  /// Same check against a prepared per-file context (cached hash table).
  bool verify(const PreparedFile& file, const Challenge& chal,
              const ProofBasic& proof) const;

  /// The smart contract's Eq. 2 check (§V-D step 2), same route.
  bool verify_private(const Fr& name, std::size_t num_chunks,
                      const Challenge& chal, const ProofPrivate& proof) const;
  bool verify_private(const PreparedFile& file, const Challenge& chal,
                      const ProofPrivate& proof) const;

  /// The prepared fixed-G2 line tables, exposed for the settlement engine
  /// (it aggregates many verifiers' terms into one multi-pairing).
  const pairing::G2Prepared& prepared_g2() const { return g2_; }
  const pairing::G2Prepared& prepared_epsilon() const { return epsilon_; }
  const pairing::G2Prepared& prepared_delta() const { return delta_; }
  /// Content identity of the verifying key (hash of epsilon, delta): the
  /// settlement engine groups instances of the same key under one
  /// epsilon/delta pairing pair even across distinct Verifier objects.
  const std::array<std::uint8_t, 32>& key_id() const { return key_id_; }

 private:
  const PublicKey& pk_;
  pairing::G2Prepared g2_;       // generator
  pairing::G2Prepared epsilon_;  // g2^x
  pairing::G2Prepared delta_;    // g2^{alpha x}
  std::array<std::uint8_t, 32> key_id_{};
  std::vector<std::uint8_t> pk_bytes_;  // private encoding when the key has one
};

// ---------------------------------------------------------------------------
// Batched round settlement (the block-level verification engine).
// ---------------------------------------------------------------------------

/// An optional T held behind one pointer, with value semantics: a copy
/// copies the T, and an empty box is one null pointer. SettlementInstance
/// keeps its Eq. 2 proof in one, so a basic round carries 8 bytes for the
/// private shape instead of its 384-byte R.
template <typename T>
class Boxed {
 public:
  Boxed() = default;
  Boxed(const Boxed& o) : p_(o.p_ ? std::make_unique<T>(*o.p_) : nullptr) {}
  Boxed(Boxed&&) noexcept = default;
  Boxed& operator=(const Boxed& o) {
    if (this != &o) p_ = o.p_ ? std::make_unique<T>(*o.p_) : nullptr;
    return *this;
  }
  Boxed& operator=(Boxed&&) noexcept = default;
  Boxed& operator=(const T& v) {
    p_ = std::make_unique<T>(v);
    return *this;
  }
  Boxed& operator=(const std::optional<T>& v) {
    p_ = v ? std::make_unique<T>(*v) : nullptr;
    return *this;
  }

  bool has_value() const { return p_ != nullptr; }
  explicit operator bool() const { return has_value(); }
  T& operator*() { return *p_; }
  const T& operator*() const { return *p_; }
  T* operator->() { return p_.get(); }
  const T* operator->() const { return p_.get(); }

 private:
  std::unique_ptr<T> p_;
};

/// One settlement-ready audit round: which prepared verifier (public key),
/// which file context, the round's challenge and its decoded proof — an
/// Eq. 1 proof inline in `basic` or an Eq. 2 proof boxed in `priv`; exactly
/// one must be engaged. A window holds one of these per round until its
/// flush, so the layout is kept small (see the static_assert below).
/// Non-owning: verifier and file must outlive the call.
/// `file == nullptr` falls back to recomputing the
/// chunk hashes from `name` / `num_chunks` (the cold path of Verifier::
/// verify, and of streaming settlement). The cold path never aggregates chi
/// for a batch check: the k hashes enter the epsilon-slot MSM directly with
/// their challenge coefficients folded into the weights (a one-round range
/// folds them at unit weight), so chi = sum_j c_j H(name||i_j) is never
/// aggregated on its own.
/// A ProofPrivate's big_r must be a genuine GT element — the wire
/// decoder guarantees this (gt_decode subgroup-checks); hand-built
/// structs are the caller's responsibility. Bisection relies on it: it
/// derives a right half's value by conjugation, the inverse only in GT.
struct SettlementInstance {
  const Verifier* verifier = nullptr;
  const PreparedFile* file = nullptr;
  Fr name;
  std::size_t num_chunks = 0;
  Challenge challenge;
  std::optional<ProofBasic> basic;
  Boxed<ProofPrivate> priv;
};
/// 16 B of pointers, 32 B name, 8 B size, 104 B challenge, 184 B optional
/// basic proof (two 72-byte affine points and y), 8 B box.
static_assert(sizeof(SettlementInstance) <= 352);

/// Per-instance outcomes plus engine telemetry.
struct SettlementOutcome {
  std::vector<bool> ok;       // one per instance, input order
  /// Direct weighted checks: ranges whose GT value was computed from their
  /// proofs (MSMs, GT multi-exp, multi-pairing, final exponentiation).
  std::size_t batch_checks = 0;
  /// Bisection right halves whose GT value was derived as parent ·
  /// conj(left) — one Fp12 multiply each, no pairing. batch_checks +
  /// derived_checks is the number of ranges of >= 2 rounds bisection visits.
  std::size_t derived_checks = 0;
  /// One-round ranges (bisection leaves and one-instance batches), each
  /// checked at unit weight against its round's own equation.
  std::size_t single_checks = 0;
  /// The window's aggregated KZG opening — sum_i [w_i * zeta_i] psi_i over
  /// the plausible instances, where w_i is the instance's Fiat–Shamir batch
  /// weight (1 when the batch is a single unweighted instance). Only
  /// computed when SettlementOptions::compute_aggregate_opening is set;
  /// infinity otherwise. This is the single G1 element an aggregate
  /// settlement tx posts in place of every per-round psi.
  G1 aggregated_opening = G1::infinity();

  bool all_ok() const {
    for (bool b : ok) {
      if (!b) return false;
    }
    return true;
  }
};

/// Engine knobs for verify_settlement.
struct SettlementOptions {
  /// Also compute SettlementOutcome::aggregated_opening (one extra G1 MSM
  /// over the batch). Off by default so legacy settlement paths stay
  /// bit-and-cost identical; BatchSettlement turns it on when it posts
  /// aggregate window txs.
  bool compute_aggregate_opening = false;
};

/// Settles any mix of Eq. 1 / Eq. 2 rounds spanning files, keys and
/// contracts in (nearly) one verification: every instance's pairing equation
/// is scaled by a random weight (128 bits)
/// derived from `weight_seed` and the instance position, and all terms
/// aggregate per fixed G2 point — the generator term is shared globally,
/// epsilon/delta per distinct key, so a clean batch costs exactly
/// 1 + 2·(#keys) pairings (3 for the same-key case). The weighted
/// aggregation itself is batch-shaped: the G1 terms fold through MSMs over
/// the weights (curve::msm: Straus for a few bases, Pippenger above), with
/// a round's chi entering as its prepared file's precomputed element or, on
/// the cold path, as its k chunk hashes weighted -rho*zeta*c_j, and the
/// private R^rho commitments fold through
/// one shared-squaring GT multi-exponentiation (Fp12::multi_pow) instead of
/// a per-round GT ladder. When the combined check fails, the batch is
/// bisected recursively so each culprit is isolated by exact per-round
/// checks — honest rounds in the same block always settle Pass. The
/// bisection is Law–Matt's quick binary search ("Finding invalid signatures
/// in pairing-based batches", IMA C&C 2007): a range's weighted GT value is
/// the product of its rounds' terms, so of a failing range only the left
/// half is checked directly, and the right half's value is derived as
/// parent · conj(left) — one Fp12 multiply instead of three MSMs, a GT
/// multi-exp, a multi-pairing and a final exponentiation. conj is the
/// inverse only on unitary elements, which is why every private R must lie
/// in GT (see SettlementInstance). A failing range whose left half is a
/// single round checks that leaf and its right half directly. A one-round
/// range — a leaf, or a one-instance batch — runs the same weighted check
/// at unit weight, which is that round's own unweighted Eq. 1 / Eq. 2, so
/// every culprit is named by its own equation; the verdicts equal those of
/// checking both halves directly.
///
/// Deterministic in (instances, weight_seed, options) at every thread
/// count. The caller must use a FRESH weight_seed per batch (derive it from
/// the batch transcript; see contract::BatchSettlement) — replaying a seed
/// an adversary has seen would let them craft cancelling forgeries.
SettlementOutcome verify_settlement(std::span<const SettlementInstance> instances,
                                    const std::array<std::uint8_t, 32>& weight_seed,
                                    const SettlementOptions& options = {});

/// The canonical window weight seed: Keccak(nonce || boundary || every
/// round's 32-byte transcript, in the window's canonical transcript-sorted
/// order). This is THE binding that makes the aggregate tx sound: the
/// transcripts commit the proofs before the seed (and so the batch weights)
/// exists, so a prover cannot fix a seed first and then craft proofs whose
/// weighted errors cancel in the batch check. Both contract::BatchSettlement
/// (posting) and verify_settlement_aggregate (checking) derive through this
/// one function.
std::array<std::uint8_t, 32> derive_settlement_seed(
    std::uint64_t nonce, std::uint64_t window_boundary,
    std::span<const std::array<std::uint8_t, 32>> transcripts);

/// Checks a posted AggregateSettlement tx against the window's instances
/// and round transcripts (both in the same canonical order the bitmap was
/// built over) and the boundary the verifier expects the window to settle
/// at. Accepts iff ALL of:
///   - tx.window_boundary equals `expected_boundary` (a tx replayed against
///     a different window refuses here);
///   - tx.weight_seed equals derive_settlement_seed(tx.seed_nonce,
///     tx.window_boundary, transcripts) — the seed is re-derived from the
///     committed transcripts, so a ground or self-chosen seed (under which
///     colluding cheaters could cancel each other's weighted errors) cannot
///     be presented as honest;
///   - the posted opening equals the aggregated opening recomputed under
///     that seed;
///   - the outcome bitmap matches the recomputed verdicts round-for-round.
/// Replay of an already-spent honest seed is refused one layer up, by
/// BatchSettlement's used_seeds_ registry.
bool verify_settlement_aggregate(
    std::span<const SettlementInstance> instances,
    std::span<const std::array<std::uint8_t, 32>> transcripts,
    std::uint64_t expected_boundary, const AggregateSettlement& tx,
    const SettlementOptions& options = {});

}  // namespace dsaudit::audit
