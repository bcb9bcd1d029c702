#include "core/model_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace pwx::core {

namespace {

const char* cov_name(regress::CovarianceType cov) {
  return cov == regress::CovarianceType::HC3 ? "HC3" : "nonrobust";
}

regress::CovarianceType cov_from_name(const std::string& name) {
  if (name == "nonrobust") return regress::CovarianceType::NonRobust;
  if (name == "HC3") return regress::CovarianceType::HC3;
  throw IoError("unsupported cov_type '" + name +
                "' in model file (only nonrobust and HC3 are read)");
}

/// Version 1 files carry both optional-term flags; the library only
/// represents Equation 1 with all four terms, so both must be true.
void require_true(const Json& root, const char* key) {
  if (!root.at(key).as_bool()) {
    throw IoError(std::string("unsupported ") + key +
                  ": false in model file (Equation 1 always carries it)");
  }
}

}  // namespace

std::string model_to_json(const PowerModel& model) {
  Json root;
  root["format"] = "pwx-power-model";
  root["version"] = 1;

  Json::Array events;
  for (pmc::Preset preset : model.spec().events) {
    events.emplace_back(std::string(pmc::preset_name(preset)));
  }
  root["events"] = Json(std::move(events));
  root["normalization"] =
      model.spec().normalization == RateNormalization::PerCycle ? "per_cycle"
                                                                : "per_second";
  root["include_dynamic_base"] = true;
  root["include_static_v"] = true;

  Json::Array beta;
  Json::Array se;
  for (std::size_t i = 0; i < model.fit().beta.size(); ++i) {
    beta.emplace_back(model.fit().beta[i]);
    se.emplace_back(model.fit().standard_error[i]);
  }
  root["coefficients"] = Json(std::move(beta));
  root["standard_errors"] = Json(std::move(se));
  root["cov_type"] = cov_name(model.fit().cov_type);
  root["r_squared"] = model.fit().r_squared;
  root["adj_r_squared"] = model.fit().adj_r_squared;
  root["n_observations"] = model.fit().n_observations;
  return root.dump();
}

void save_model(const PowerModel& model, const std::string& path) {
  // Crash-safe save: write to a temp file in the target's directory, fsync
  // it, then rename() into place. A crash at any point leaves either the old
  // complete file or the new complete file — never a torn model (rename is
  // atomic within a filesystem). The partial-write sweep in tests/core_test
  // pins that any torn byte prefix is rejected by load_model, so atomicity
  // here is what makes deployed model files trustworthy.
  const std::string payload = model_to_json(model) + '\n';
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw IoError("cannot open '" + temp + "' for writing: " +
                  std::strerror(errno));
  }
  const char* data = payload.data();
  std::size_t remaining = payload.size();
  while (remaining > 0) {
    const ::ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string reason = std::strerror(errno);
      ::close(fd);
      ::unlink(temp.c_str());
      throw IoError("write to '" + temp + "' failed: " + reason);
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(temp.c_str());
    throw IoError("flush of '" + temp + "' failed: " + reason);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(temp.c_str());
    throw IoError("rename of '" + temp + "' to '" + path + "' failed: " + reason);
  }
  // Persist the rename itself (directory entry), so a crash right after
  // save_model returns cannot resurface the old file. Best effort: some
  // filesystems refuse directory fsync.
  const std::size_t sep = path.find_last_of('/');
  const std::string dir = sep == std::string::npos ? "." : path.substr(0, sep + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
}

PowerModel model_from_json(const std::string& text) {
  // Json::at/as_* throw plain pwx::Error on missing keys / wrong types;
  // re-type everything here so callers see a descriptive IoError for any
  // malformed model file.
  try {
    const Json root = Json::parse(text);
    if (root.at("format").as_string() != "pwx-power-model") {
      throw IoError("not a pwx power model file");
    }
    const Json& version = root.at("version");
    if (version.as_number() != 1.0) {
      throw IoError("unsupported model file version " + version.dump() +
                    " (only 1 is read)");
    }

    FeatureSpec spec;
    for (const Json& name : root.at("events").as_array()) {
      const auto preset = pmc::preset_from_name(name.as_string());
      if (!preset) {
        throw IoError("unknown preset '" + name.as_string() + "' in model file");
      }
      spec.events.push_back(*preset);
    }
    if (spec.events.empty()) {
      throw IoError("model file lists no events");
    }
    const std::string& normalization = root.at("normalization").as_string();
    if (normalization == "per_cycle") {
      spec.normalization = RateNormalization::PerCycle;
    } else if (normalization == "per_second") {
      spec.normalization = RateNormalization::PerSecond;
    } else {
      throw IoError("unknown normalization '" + normalization + "' in model file");
    }
    require_true(root, "include_dynamic_base");
    require_true(root, "include_static_v");

    regress::OlsResult fit;
    for (const Json& value : root.at("coefficients").as_array()) {
      const double beta = value.as_number();
      if (!std::isfinite(beta)) {
        throw IoError("model file coefficient " + std::to_string(fit.beta.size()) +
                      " is not finite");
      }
      fit.beta.push_back(beta);
    }
    for (const Json& value : root.at("standard_errors").as_array()) {
      const double se = value.as_number();
      if (!std::isfinite(se) || se < 0.0) {
        throw IoError("model file standard error " +
                      std::to_string(fit.standard_error.size()) +
                      " is not finite and non-negative");
      }
      fit.standard_error.push_back(se);
    }
    if (fit.beta.size() != spec.column_count() + 1) {
      throw IoError("model file coefficient count does not match the feature spec");
    }
    if (fit.standard_error.size() != fit.beta.size()) {
      throw IoError("model file standard error count does not match coefficients");
    }
    fit.cov_type = cov_from_name(root.at("cov_type").as_string());
    fit.r_squared = root.at("r_squared").as_number();
    fit.adj_r_squared = root.at("adj_r_squared").as_number();
    // Above 2^53 a double no longer holds every integer, and past 2^64 the
    // cast below would be undefined.
    constexpr double kMaxObservations = 9007199254740992.0;  // 2^53
    const double n_obs = root.at("n_observations").as_number();
    if (!(n_obs >= 0.0 && n_obs <= kMaxObservations) ||
        n_obs != std::floor(n_obs)) {
      throw IoError("model file n_observations must be an integer in [0, 2^53]");
    }
    fit.n_observations = static_cast<std::size_t>(n_obs);
    fit.n_parameters = fit.beta.size();
    if (fit.n_observations > 0 && fit.n_observations < fit.n_parameters) {
      throw IoError("model file n_observations is smaller than the parameter count");
    }
    return PowerModel(spec, std::move(fit));
  } catch (const IoError&) {
    throw;
  } catch (const Error& e) {
    throw IoError(std::string("malformed model file: ") + e.what());
  }
}

PowerModel load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return model_from_json(buffer.str());
}

}  // namespace pwx::core
