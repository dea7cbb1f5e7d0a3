#include "inputs.hpp"

#include <algorithm>
#include <random>

#include "imaging/phantom.hpp"

namespace e2e {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

pi2m::LabeledImage3D pad_at_seeded_offset(const pi2m::LabeledImage3D& img,
                                          int pad, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> off(0, pad);
  const int ox = off(rng), oy = off(rng), oz = off(rng);
  pi2m::LabeledImage3D out(img.nx() + pad, img.ny() + pad, img.nz() + pad,
                           img.spacing(), img.origin());
  for (int z = 0; z < img.nz(); ++z) {
    for (int y = 0; y < img.ny(); ++y) {
      for (int x = 0; x < img.nx(); ++x) {
        out.at(pi2m::Voxel{x + ox, y + oy, z + oz}) =
            img.at(pi2m::Voxel{x, y, z});
      }
    }
  }
  return out;
}

ServeInputs make_serve_inputs(std::uint64_t seed, int decks) {
  using pi2m::serve::Priority;
  ServeInputs in;
  auto add_image = [&](pi2m::LabeledImage3D img, std::string name,
                       bool fresh) {
    in.images.push_back(
        std::make_shared<const pi2m::LabeledImage3D>(std::move(img)));
    in.names.push_back(std::move(name));
    in.fresh.push_back(fresh);
    return in.images.size() - 1;
  };

  // Repeated images: four anatomical phantoms at two sizes.
  const char* kPhantoms[] = {"knee", "head_neck", "vessels", "abdominal"};
  const int kSizes[] = {48, 64};
  const double kDeltas[] = {1.0, 1.5, 2.0};
  std::vector<std::size_t> repeated;
  std::uint64_t stream = 0;
  for (const char* p : kPhantoms) {
    for (const int n : kSizes) {
      const std::string name = p;
      pi2m::LabeledImage3D img =
          name == "knee"        ? pi2m::phantom::knee(n, n, n)
          : name == "head_neck" ? pi2m::phantom::head_neck(n, n, n)
          : name == "vessels"   ? pi2m::phantom::vessels(n)
                                : pi2m::phantom::abdominal(n, n, n);
      repeated.push_back(add_image(
          pad_at_seeded_offset(img, 2, mix_seed(seed, stream++)),
          name + std::to_string(n), false));
    }
  }

  std::mt19937_64 rng(mix_seed(seed, 1000));
  auto priority = [&] {
    const int r = static_cast<int>(rng() % 4);
    return r == 0 ? Priority::High : r == 3 ? Priority::Low : Priority::Normal;
  };
  for (int d = 0; d < decks; ++d) {
    std::vector<ServeRequest> deck;
    for (const std::size_t img : repeated) {
      for (const double delta : kDeltas) {
        deck.push_back({img, delta, Priority::Normal});
      }
    }
    for (int f = 0; f < kDeckFresh; ++f) {
      const int n = kSizes[f % 2];
      const auto blob_seed =
          static_cast<unsigned>(mix_seed(seed, 2000 + d * kDeckFresh + f));
      const std::size_t img = add_image(
          pi2m::phantom::random_blobs(n, blob_seed),
          "blobs" + std::to_string(n) + "_" + std::to_string(d) + "_" +
              std::to_string(f),
          true);
      deck.push_back({img, f % 4 < 2 ? 1.5 : 2.0, Priority::Normal});
    }
    std::shuffle(deck.begin(), deck.end(), rng);
    for (ServeRequest& r : deck) r.priority = priority();
    in.requests.insert(in.requests.end(), deck.begin(), deck.end());
  }

  in.warmup_image = add_image(
      pi2m::phantom::random_blobs(48, static_cast<unsigned>(
                                          mix_seed(seed, 999))),
      "warmup_blobs48", false);
  return in;
}

}  // namespace e2e
