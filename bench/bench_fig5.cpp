// Fig. 5: gas cost as a function of extrapolated verification time, for the
// 96-byte (w/o privacy) and 288-byte (w/ privacy) proofs, using the paper's
// own gas-extrapolation methodology; plus our actually-measured verification
// times placed on the same curve.
#include "bench/bench_util.hpp"
#include "chain/gas.hpp"

using namespace dsaudit;
using namespace dsaudit::benchutil;

int main() {
  auto rng = primitives::SecureRng::deterministic(45);
  header("Fig. 5 reproduction: gas cost vs extrapolated verification time");

  chain::GasSchedule gas = chain::GasSchedule::calibrated();
  std::printf("calibration anchor: 288 B proof @ 7.2 ms = %llu gas (paper: 589,000)\n\n",
              static_cast<unsigned long long>(gas.audit_tx_gas(288, 48, 7.2)));

  std::printf("%14s %26s %26s\n", "verify (ms)", "w/o privacy 96 B (Mgas)",
              "w/ privacy 288 B (Mgas)");
  for (double ms : {5.0, 6.0, 7.0, 8.0, 9.0}) {
    std::printf("%14.1f %26.3f %26.3f\n", ms,
                gas.audit_tx_gas(96, 48, ms) / 1e6,
                gas.audit_tx_gas(288, 48, ms) / 1e6);
  }

  // Our measured verification times on this machine, same extrapolation.
  Scenario sc = make_scenario(512 * 1024, 50, rng);
  audit::Prover prover(sc.kp.pk, sc.file, sc.tag);
  audit::Challenge chal = make_challenge(rng, 300);
  auto basic = prover.prove(chal);
  auto priv = prover.prove_private(chal, rng);
  double t_basic = time_best_ms([&] {
    if (!audit::Verifier(sc.kp.pk).verify(sc.name, sc.file.num_chunks(), chal,
                                          basic))
      std::abort();
  });
  double t_priv = time_best_ms([&] {
    if (!audit::Verifier(sc.kp.pk).verify_private(
            sc.name, sc.file.num_chunks(), chal, priv))
      std::abort();
  });
  std::printf("\nmeasured on this machine (k = 300):\n");
  std::printf("  w/o privacy: %6.1f ms -> %.3f Mgas\n", t_basic,
              gas.audit_tx_gas(96, 48, t_basic) / 1e6);
  std::printf("  w/  privacy: %6.1f ms -> %.3f Mgas\n", t_priv,
              gas.audit_tx_gas(288, 48, t_priv) / 1e6);
  std::printf("\nshape check: both lines linear in verification time with slope\n"
              "%.0f gas/ms; privacy costs a constant %llu extra calldata gas.\n",
              gas.verify_gas_per_ms,
              static_cast<unsigned long long>((288 - 96) * 16));
  return 0;
}
