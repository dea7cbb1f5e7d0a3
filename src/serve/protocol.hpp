// Wire protocol of the meshing daemon: newline-delimited JSON over a local
// stream socket. One request object per line, one response object per
// line, strictly request/response (no server push).
//
// Requests ({"op": ...}):
//   {"op":"ping"}
//   {"op":"submit","priority":"high|normal|low","job":{...}}
//   {"op":"status","id":N}
//   {"op":"cancel","id":N}
//   {"op":"result","id":N}
//   {"op":"stats"}
//   {"op":"shutdown","mode":"drain|now"}
//
// Job object (all knobs optional except one input):
//   "input": "/path/vol.mha"            — or —
//   "phantom": "ball", "size": 64       — or —
//   "volume": {"nx":..,"ny":..,"nz":..,
//              "spacing":[sx,sy,sz], "origin":[ox,oy,oz],
//              "labels_b64": "<base64 of nx*ny*nz label bytes>"}
//   "downsample", "crop_pad", "delta", "rho", "facet_angle",
//   "uniform_size", "threads", "cm", "lb", "smooth",
//   "interior": "lattice|delaunay", "lattice_spacing",
//   "report", "validate", "outputs": ["/path/out.vtk"]
// Unknown job keys are ignored.
//
// Responses always carry "ok". Failures carry a stable machine-readable
// "code" (kRejectedOverload, kDraining, kNotFound, ...) plus a
// human-readable "error". See DESIGN.md "Serving architecture" for the
// job lifecycle these ops drive.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "pipeline/mesh_job.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"

namespace pi2m::serve {

/// Stable failure codes (the protocol's contract; never renumber/rename).
inline constexpr const char* kRejectedOverload = "REJECTED_OVERLOAD";
inline constexpr const char* kDraining = "DRAINING";
inline constexpr const char* kNotFound = "NOT_FOUND";
inline constexpr const char* kNotFinished = "NOT_FINISHED";
inline constexpr const char* kBadRequest = "BAD_REQUEST";
inline constexpr const char* kInternal = "INTERNAL";

const char* priority_name(Priority p);
/// "high"/"normal"/"low"; anything else fails.
bool parse_priority(std::string_view name, Priority* out);

struct Request {
  enum class Op {
    Invalid,
    Ping,
    Submit,
    Status,
    Cancel,
    Result,
    Stats,
    Shutdown,
  };
  Op op = Op::Invalid;
  std::string error;        ///< why the request is Invalid
  std::uint64_t id = 0;     ///< status/cancel/result
  Priority priority = Priority::Normal;  ///< submit
  JobSpec job;              ///< submit
  bool drain = true;        ///< shutdown: drain (true) or now (false)
};

/// Parses one request line. Never throws; malformed input yields
/// Op::Invalid with `error` set.
Request parse_request(std::string_view line);

/// Decodes the "job" object into a JobSpec (defaults per JobSpec).
/// `threads` is left at 0 when absent so the service can apply its
/// configured per-job default.
bool decode_job(const JsonValue& j, JobSpec* spec, std::string* error);

/// {"ok":false,"code":code,"error":detail}
std::string error_response(const char* code, const std::string& detail);

}  // namespace pi2m::serve
