// Seeded workload inputs. The program only ever sees the generated images,
// handed over as inline volumes; the seed never reaches it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "imaging/image3d.hpp"
#include "serve/job_queue.hpp"

namespace e2e {

/// Copies `img` into a grid `pad` voxels larger on every axis, at a voxel
/// offset in [0, pad]^3 drawn from `seed`.
pi2m::LabeledImage3D pad_at_seeded_offset(const pi2m::LabeledImage3D& img,
                                          int pad, std::uint64_t seed);

/// SplitMix64 step: derives independent streams from one workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// One request of the serve_mixed stream.
struct ServeRequest {
  std::size_t image = 0;  ///< index into ServeInputs::images
  double delta = 1.0;
  pi2m::serve::Priority priority = pi2m::serve::Priority::Normal;
};

struct ServeInputs {
  std::vector<std::shared_ptr<const pi2m::LabeledImage3D>> images;
  std::vector<std::string> names;
  std::vector<bool> fresh;  ///< used by exactly one request
  std::vector<ServeRequest> requests;  ///< the stream, in submission order
  std::size_t warmup_image = 0;        ///< image of the untimed warm-up jobs
};

/// The serve_mixed request stream: repeated anatomical phantoms (knee,
/// head_neck, vessels, abdominal at 48^3/64^3, each at a seeded offset)
/// dealt in shuffled decks with fresh random_blobs images mixed in, so the
/// EDT cache sees both hits and misses. `decks` bounds the stream length.
ServeInputs make_serve_inputs(std::uint64_t seed, int decks);

/// Fresh images per deck of requests (a deck also holds the 24 repeated
/// specs: 4 phantoms x 2 sizes x 3 deltas).
constexpr int kDeckFresh = 8;

}  // namespace e2e
