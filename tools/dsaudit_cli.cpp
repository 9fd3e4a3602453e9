// dsaudit — command-line driver for the auditing protocol.
//
// A downstream user's entry point: run the whole owner/provider/contract
// workflow on real files from a shell, with every artifact as a file.
//
//   dsaudit keygen   --s 50 --sk sk.bin --pk pk.bin
//   dsaudit tag      --sk sk.bin --pk pk.bin --file archive.bin --tag tag.bin
//   dsaudit accept   --pk pk.bin --file archive.bin --tag tag.bin
//   dsaudit challenge --k 300 --out chal.bin
//   dsaudit prove    --pk pk.bin --file archive.bin --tag tag.bin
//                    --challenge chal.bin --proof proof.bin [--basic]
//   dsaudit verify   --pk pk.bin --tag tag.bin --challenge chal.bin
//                    --proof proof.bin [--basic]
//
// Exit code 0 = success / proof valid; 1 = failure; 2 = usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "pairing/pairing.hpp"

using namespace dsaudit;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dsaudit <keygen|tag|accept|challenge|prove|verify> [options]\n"
               "  keygen    --s N --sk FILE --pk FILE\n"
               "  tag       --sk FILE --pk FILE --file FILE --tag FILE\n"
               "  accept    --pk FILE --file FILE --tag FILE\n"
               "  challenge --k N --out FILE\n"
               "  prove     --pk FILE --file FILE --tag FILE --challenge FILE "
               "--proof FILE [--basic]\n"
               "  verify    --pk FILE --tag FILE --challenge FILE --proof FILE "
               "[--basic]\n");
  std::exit(2);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "dsaudit: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(reinterpret_cast<const char*>(data.data()),
                         static_cast<std::streamsize>(data.size()))) {
    std::fprintf(stderr, "dsaudit: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

struct Args {
  std::map<std::string, std::string> named;
  bool basic = false;

  const std::string& get(const std::string& key) const {
    auto it = named.find(key);
    if (it == named.end()) {
      std::fprintf(stderr, "dsaudit: missing --%s\n", key.c_str());
      usage();
    }
    return it->second;
  }
};

Args parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--basic") {
      args.basic = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args.named[a.substr(2)] = argv[++i];
    } else {
      usage();
    }
  }
  return args;
}

audit::PublicKey load_pk(const std::string& path) {
  auto decoded = audit::decode_public_key(read_file(path));
  if (!decoded) {
    std::fprintf(stderr, "dsaudit: malformed public key %s (%s)\n", path.c_str(),
                 audit::to_string(decoded.error));
    std::exit(1);
  }
  audit::PublicKey pk = *decoded;
  if (pk.e_g1_epsilon.is_zero()) {
    // Key was stored without the privacy extras; recompute the GT base.
    pk.e_g1_epsilon = dsaudit::pairing::pairing(curve::G1::generator(), pk.epsilon);
  }
  return pk;
}

audit::FileTag load_tag(const std::string& path) {
  auto tag = audit::decode_file_tag(read_file(path));
  if (!tag) {
    std::fprintf(stderr, "dsaudit: malformed tag %s (%s)\n", path.c_str(),
                 audit::to_string(tag.error));
    std::exit(1);
  }
  return *tag;
}

audit::Challenge load_challenge(const std::string& path) {
  auto chal = audit::decode_challenge(read_file(path));
  if (!chal) {
    std::fprintf(stderr, "dsaudit: malformed challenge %s (%s)\n", path.c_str(),
                 audit::to_string(chal.error));
    std::exit(1);
  }
  return *chal;
}

int cmd_keygen(const Args& args) {
  std::size_t s = std::stoull(args.get("s"));
  auto rng = primitives::SecureRng::from_os();
  audit::KeyPair kp = audit::keygen(s, rng);
  write_file(args.get("sk"), audit::serialize(kp.sk));
  write_file(args.get("pk"), audit::serialize(kp.pk, /*with_privacy=*/true));
  std::printf("keygen: s=%zu, pk=%zu bytes on chain\n", s,
              audit::PublicKey::serialized_size_for(s, true));
  return 0;
}

int cmd_tag(const Args& args) {
  auto sk = audit::decode_secret_key(read_file(args.get("sk")));
  if (!sk) {
    std::fprintf(stderr, "dsaudit: malformed secret key (%s)\n",
                 audit::to_string(sk.error));
    return 1;
  }
  audit::PublicKey pk = load_pk(args.get("pk"));
  auto data = read_file(args.get("file"));
  auto file = storage::encode_file(data, pk.s);
  auto rng = primitives::SecureRng::from_os();
  audit::Fr name = audit::Fr::random(rng);
  audit::FileTag tag = audit::generate_tags(*sk, pk, file, name, 4);
  write_file(args.get("tag"), audit::serialize(tag));
  std::printf("tag: %zu bytes -> %zu chunks, name=%s\n", data.size(),
              tag.num_chunks, name.to_dec().c_str());
  return 0;
}

int cmd_accept(const Args& args) {
  audit::PublicKey pk = load_pk(args.get("pk"));
  auto data = read_file(args.get("file"));
  auto file = storage::encode_file(data, pk.s);
  audit::FileTag tag = load_tag(args.get("tag"));
  bool ok = audit::Verifier(pk).verify_tags(file, tag);
  std::printf("accept: authenticators %s\n", ok ? "VALID" : "INVALID");
  return ok ? 0 : 1;
}

int cmd_challenge(const Args& args) {
  auto rng = primitives::SecureRng::from_os();
  audit::Challenge chal;
  chal.c1 = rng.bytes32();
  chal.c2 = rng.bytes32();
  chal.r = audit::Fr::random(rng);
  chal.k = std::stoull(args.get("k"));
  write_file(args.get("out"), audit::serialize(chal));
  std::printf("challenge: k=%zu written\n", chal.k);
  return 0;
}

int cmd_prove(const Args& args) {
  audit::PublicKey pk = load_pk(args.get("pk"));
  auto data = read_file(args.get("file"));
  auto file = storage::encode_file(data, pk.s);
  audit::FileTag tag = load_tag(args.get("tag"));
  audit::Challenge chal = load_challenge(args.get("challenge"));
  audit::Prover prover(pk, file, tag);
  std::vector<std::uint8_t> proof_bytes;
  if (args.basic) {
    proof_bytes = audit::serialize(prover.prove(chal));
  } else {
    auto rng = primitives::SecureRng::from_os();
    proof_bytes = audit::serialize(prover.prove_private(chal, rng));
  }
  write_file(args.get("proof"), proof_bytes);
  std::printf("prove: %zu-byte proof written\n", proof_bytes.size());
  return 0;
}

int cmd_verify(const Args& args) {
  audit::PublicKey pk = load_pk(args.get("pk"));
  audit::FileTag tag = load_tag(args.get("tag"));
  audit::Challenge chal = load_challenge(args.get("challenge"));
  auto proof_bytes = read_file(args.get("proof"));
  audit::Verifier verifier(pk);
  bool ok = false;
  audit::DecodeError error = audit::DecodeError::None;
  if (args.basic) {
    auto proof = audit::decode_basic(proof_bytes);
    error = proof.error;
    ok = proof && verifier.verify(tag.name, tag.num_chunks, chal, *proof);
  } else {
    auto proof = audit::decode_private(proof_bytes);
    error = proof.error;
    ok = proof &&
         verifier.verify_private(tag.name, tag.num_chunks, chal, *proof);
  }
  if (error != audit::DecodeError::None) {
    std::printf("verify: FAIL (%s)\n", audit::to_string(error));
  } else {
    std::printf("verify: %s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string cmd = argv[1];
  Args args = parse(argc, argv, 2);
  try {
    if (cmd == "keygen") return cmd_keygen(args);
    if (cmd == "tag") return cmd_tag(args);
    if (cmd == "accept") return cmd_accept(args);
    if (cmd == "challenge") return cmd_challenge(args);
    if (cmd == "prove") return cmd_prove(args);
    if (cmd == "verify") return cmd_verify(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsaudit: %s\n", e.what());
    return 1;
  }
  usage();
}
