#include "serve/protocol.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "telemetry/json_writer.hpp"

namespace pi2m::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::High: return "high";
    case Priority::Normal: return "normal";
    case Priority::Low: return "low";
  }
  return "?";
}

bool parse_priority(std::string_view name, Priority* out) {
  if (name == "high") {
    *out = Priority::High;
  } else if (name == "normal") {
    *out = Priority::Normal;
  } else if (name == "low") {
    *out = Priority::Low;
  } else {
    return false;
  }
  return true;
}

namespace {

bool decode_volume(const JsonValue& v, JobSpec* spec, std::string* error) {
  const int nx = static_cast<int>(v["nx"].as_int());
  const int ny = static_cast<int>(v["ny"].as_int());
  const int nz = static_cast<int>(v["nz"].as_int());
  if (nx < 1 || ny < 1 || nz < 1 || nx > 4096 || ny > 4096 || nz > 4096) {
    *error = "volume: bad dimensions";
    return false;
  }
  Vec3 spacing{1, 1, 1};
  Vec3 origin{0, 0, 0};
  const JsonArray& sp = v["spacing"].as_array();
  if (sp.size() == 3) {
    spacing = {sp[0].as_double(1), sp[1].as_double(1), sp[2].as_double(1)};
    if (spacing.x <= 0 || spacing.y <= 0 || spacing.z <= 0) {
      *error = "volume: spacing must be positive";
      return false;
    }
  }
  const JsonArray& org = v["origin"].as_array();
  if (org.size() == 3) {
    origin = {org[0].as_double(), org[1].as_double(), org[2].as_double()};
  }
  std::vector<std::uint8_t> labels;
  if (!base64_decode(v["labels_b64"].as_string(), &labels)) {
    *error = "volume: labels_b64 is not valid base64";
    return false;
  }
  const std::size_t want = static_cast<std::size_t>(nx) * ny * nz;
  if (labels.size() != want) {
    *error = "volume: labels_b64 decodes to " +
             std::to_string(labels.size()) + " bytes, want " +
             std::to_string(want);
    return false;
  }
  auto img = std::make_shared<LabeledImage3D>(nx, ny, nz, spacing, origin);
  static_assert(sizeof(Label) == 1, "wire format ships one byte per voxel");
  img->raw().assign(labels.begin(), labels.end());
  spec->inline_image = std::move(img);
  return true;
}

}  // namespace

bool decode_job(const JsonValue& j, JobSpec* spec, std::string* error) {
  if (!j.is_object()) {
    *error = "job must be an object";
    return false;
  }
  spec->input_path = j["input"].as_string();
  spec->phantom = j["phantom"].as_string();
  if (j["size"].is_number()) {
    spec->phantom_size = static_cast<int>(j["size"].as_int());
  }
  if (j["volume"].is_object() &&
      !decode_volume(j["volume"], spec, error)) {
    return false;
  }
  int inputs = 0;
  if (!spec->input_path.empty()) ++inputs;
  if (!spec->phantom.empty()) ++inputs;
  if (spec->inline_image != nullptr) ++inputs;
  if (inputs != 1) {
    *error = "job needs exactly one of input/phantom/volume";
    return false;
  }

  if (j["downsample"].is_number()) {
    spec->downsample = static_cast<int>(j["downsample"].as_int());
  }
  if (j["crop_pad"].is_number()) {
    spec->crop_pad = static_cast<int>(j["crop_pad"].as_int());
  }
  spec->mesh.delta = j["delta"].as_double(spec->mesh.delta);
  if (spec->mesh.delta <= 0) {
    *error = "delta must be positive";
    return false;
  }
  spec->mesh.radius_edge_bound =
      j["rho"].as_double(spec->mesh.radius_edge_bound);
  spec->mesh.min_planar_angle_deg =
      j["facet_angle"].as_double(spec->mesh.min_planar_angle_deg);
  spec->uniform_size = j["uniform_size"].as_double(spec->uniform_size);
  // 0 = "not specified": the service substitutes its configured default.
  spec->mesh.threads = static_cast<int>(j["threads"].as_int(0));
  if (j["cm"].is_string()) {
    const auto cm = parse_cm_name(j["cm"].as_string());
    if (!cm) {
      *error = "unknown contention manager '" + j["cm"].as_string() + "'";
      return false;
    }
    spec->mesh.contention_manager = *cm;
  }
  if (j["lb"].is_string()) {
    const auto lb = parse_lb_name(j["lb"].as_string());
    if (!lb) {
      *error = "unknown load balancer '" + j["lb"].as_string() + "'";
      return false;
    }
    spec->mesh.load_balancer = *lb;
  }
  if (j["interior"].is_string()) {
    const auto fill = parse_interior_name(j["interior"].as_string());
    if (!fill) {
      *error = "unknown interior fill '" + j["interior"].as_string() + "'";
      return false;
    }
    spec->mesh.interior = *fill;
  }
  spec->mesh.lattice_spacing =
      j["lattice_spacing"].as_double(spec->mesh.lattice_spacing);
  if (spec->mesh.lattice_spacing < 0) {
    *error = "lattice_spacing must be non-negative";
    return false;
  }
  if (j["smooth"].is_number()) {
    spec->smooth = static_cast<int>(j["smooth"].as_int());
  }
  spec->want_report = j["report"].as_bool(spec->want_report);
  spec->want_validation = j["validate"].as_bool(spec->want_validation);
  for (const JsonValue& out : j["outputs"].as_array()) {
    if (!out.is_string()) {
      *error = "outputs must be an array of paths";
      return false;
    }
    spec->outputs.push_back(out.as_string());
  }
  return true;
}

Request parse_request(std::string_view line) {
  Request req;
  std::string perr;
  const JsonValue root = json_parse(line, &perr);
  if (!root.is_object()) {
    req.error = perr.empty() ? "request must be a JSON object" : perr;
    return req;
  }
  const std::string& op = root["op"].as_string();
  if (op == "ping") {
    req.op = Request::Op::Ping;
  } else if (op == "submit") {
    if (root["priority"].is_string() &&
        !parse_priority(root["priority"].as_string(), &req.priority)) {
      req.error = "unknown priority '" + root["priority"].as_string() + "'";
      return req;
    }
    if (!decode_job(root["job"], &req.job, &req.error)) return req;
    req.op = Request::Op::Submit;
  } else if (op == "status" || op == "cancel" || op == "result") {
    if (!root["id"].is_number() || root["id"].as_int() < 0) {
      req.error = "missing or bad 'id'";
      return req;
    }
    req.id = static_cast<std::uint64_t>(root["id"].as_int());
    req.op = op == "status"   ? Request::Op::Status
             : op == "cancel" ? Request::Op::Cancel
                              : Request::Op::Result;
  } else if (op == "stats") {
    req.op = Request::Op::Stats;
  } else if (op == "shutdown") {
    const std::string& mode = root["mode"].as_string();
    if (!mode.empty() && mode != "drain" && mode != "now") {
      req.error = "shutdown mode must be 'drain' or 'now'";
      return req;
    }
    req.drain = mode != "now";
    req.op = Request::Op::Shutdown;
  } else {
    req.error = op.empty() ? "missing 'op'" : "unknown op '" + op + "'";
  }
  return req;
}

std::string error_response(const char* code, const std::string& detail) {
  telemetry::JsonWriter w;
  w.begin_object()
      .kv("ok", false)
      .kv("code", code)
      .kv("error", detail)
      .end_object();
  return w.str();
}

}  // namespace pi2m::serve
