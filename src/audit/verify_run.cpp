#include "audit/verify_run.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "io/atomic_file.h"
#include "mdp/hierarchy.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

bool isDirectory(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool fileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Artifact paths in the manifest are relative to the run's working
/// directory. Verification may happen elsewhere, so fall back to
/// resolving against the manifest's own directory.
std::string resolveArtifactPath(const std::string& manifestDir,
                                const std::string& path) {
  if (fileExists(path)) return path;
  const std::string inDir = manifestDir + "/" + path;
  if (fileExists(inDir)) return inDir;
  const std::string byBase = manifestDir + "/" + basenameOf(path);
  if (fileExists(byBase)) return byBase;
  return path;  // keep the original so the error message names it
}

/// The manifest a --verify run audits: its path, the bytes read from it
/// (the bytes the sidecar is checked against) and their parse.
struct LoadedManifest {
  std::string path;
  std::string bytes;
  JsonValue doc;
};

/// A directory target: find exactly one *.json that is a run manifest,
/// keeping the one found as read and parsed.
Status locateManifestInDir(const std::string& dir, LoadedManifest& out) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status(StatusCode::kIoError, "cannot open directory '" + dir + "'");
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    names.emplace_back(entry->d_name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // readdir order is arbitrary

  std::vector<std::string> candidates;
  for (const std::string& name : names) {
    if (name.size() < 5 || name.substr(name.size() - 5) != ".json") continue;
    LoadedManifest m;
    m.path = dir + "/" + name;
    if (!readFileToString(m.path, m.bytes).ok()) continue;
    if (!parseJson(m.bytes, m.doc).ok()) continue;
    const JsonValue* schema = m.doc.find("schema");
    if (schema != nullptr && schema->string == "mbf-run-manifest") {
      candidates.push_back(m.path);
      if (candidates.size() == 1) out = std::move(m);
    }
  }
  if (candidates.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "no mbf-run-manifest *.json in '" + dir +
                      "' (was the run started with --metrics-json?)");
  }
  if (candidates.size() > 1) {
    std::string list;
    for (const std::string& c : candidates) list += " " + c;
    return Status(StatusCode::kInvalidArgument,
                  "multiple run manifests in '" + dir + "':" + list +
                      " — pass the manifest path directly");
  }
  return Status();
}

double numberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

/// The integer a manifest number holds: `fallback` when the field is
/// absent or not a number; `fallback` plus an issue naming the field
/// when it is not integral or does not fit Int (JSON numbers are
/// doubles, so 1e300 parses — converting it would be undefined).
template <typename Int>
Int integerOr(const JsonValue* v, Int fallback, const std::string& field,
              std::vector<std::string>& issues) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return fallback;
  const double d = v->number;
  // [min, -min) holds exactly Int's integral values, and both bounds
  // are powers of two, so exact as doubles.
  const double lo = static_cast<double>(std::numeric_limits<Int>::min());
  if (d == std::trunc(d) && d >= lo && d < -lo) return static_cast<Int>(d);
  std::ostringstream text;
  text.precision(17);
  text << d;
  issues.push_back("manifest " + field + " = " + text.str() +
                   " is not a " + std::to_string(8 * sizeof(Int)) +
                   "-bit integer");
  return fallback;
}

std::string stringOr(const JsonValue* v, const std::string& fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string
                                                             : fallback;
}

bool boolOr(const JsonValue* v, bool fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kBool ? v->boolean
                                                           : fallback;
}

}  // namespace

Status auditShotsFile(const std::string& path,
                      const std::vector<LayoutShape>& shapes,
                      const FractureParams& params,
                      std::span<const ShapeExpectation> expectations,
                      int threads, AuditReport& out) {
  out = {};
  std::string bytes;
  Status st = readFileToString(path, bytes);
  if (!st.ok()) return st;
  std::vector<ShotSection> sections;
  st = parseShotSections(bytes, sections);
  if (!st.ok()) {
    return Status(st.code(), "shots artifact '" + path + "': " + st.message());
  }
  out = auditShotSections(shapes, params, sections, expectations, threads);
  return Status();
}

std::string VerifyReport::str() const {
  std::string out;
  for (const std::string& issue : fileIssues) out += issue + "\n";
  out += audit.str();
  return out;
}

Status verifyRun(const VerifyOptions& options, VerifyReport& out) {
  out = {};

  // 1. Locate and load the manifest: read once, parsed once (a
  //    directory target was parsed while it was being located).
  LoadedManifest manifest;
  const bool located = isDirectory(options.target);
  if (located) {
    const Status st = locateManifestInDir(options.target, manifest);
    if (!st.ok()) return st;
  } else {
    manifest.path = options.target;
    const Status st = readFileToString(manifest.path, manifest.bytes);
    if (!st.ok()) return st;
  }
  const std::string& manifestPath = manifest.path;
  out.manifestPath = manifestPath;

  // 2. The manifest's own integrity: its .sha256 sidecar (the manifest
  //    cannot embed its own digest), checked against the bytes parsed.
  {
    const Status st = verifyHashSidecar(manifestPath, manifest.bytes);
    if (!st.ok()) out.fileIssues.push_back(st.message());
  }

  const JsonValue& doc = manifest.doc;
  if (!located) {
    const Status st = parseJson(manifest.bytes, manifest.doc);
    if (!st.ok()) {
      return Status(StatusCode::kParseError,
                    "manifest '" + manifestPath +
                        "' is not valid JSON: " + st.message());
    }
  }
  if (stringOr(doc.find("schema"), "") != "mbf-run-manifest") {
    return Status(StatusCode::kInvalidArgument,
                  "'" + manifestPath + "' is not an mbf-run-manifest");
  }
  out.interrupted = stringOr(doc.find("status"), "completed") == "interrupted";

  const std::string manifestDir = dirnameOf(manifestPath);

  // 3. Re-hash every artifact the manifest lists.
  if (const JsonValue* artifacts = doc.find("artifacts");
      artifacts != nullptr && artifacts->isArray()) {
    for (const JsonValue& a : artifacts->items) {
      const std::string kind = stringOr(a.find("kind"), "?");
      const std::string rawPath = stringOr(a.find("path"), "");
      const std::string expected = stringOr(a.find("sha256"), "");
      const std::string path = resolveArtifactPath(manifestDir, rawPath);
      std::string actual;
      const Status st = sha256File(path, actual);
      if (!st.ok()) {
        out.fileIssues.push_back(kind + " artifact '" + rawPath +
                                 "': " + st.message());
        continue;
      }
      ++out.artifactsChecked;
      if (actual != expected) {
        out.fileIssues.push_back(kind + " artifact '" + rawPath +
                                 "' is corrupt: manifest records sha256 " +
                                 expected + ", file hashes to " + actual);
      }
    }
  } else {
    out.fileIssues.push_back(
        "manifest has no artifacts list (written before the integrity "
        "layer?) — artifact hashes cannot be checked");
  }

  // 4. Reconstruct the run configuration.
  const JsonValue* config = doc.find("config");
  if (config == nullptr || !config->isObject()) {
    return Status(StatusCode::kInvalidArgument,
                  "manifest '" + manifestPath + "' has no config block");
  }
  BatchConfig batch;
  forEachResultField(batch.params, [&](const char* name, auto& field) {
    using Field = std::remove_reference_t<decltype(field)>;
    const JsonValue* v = config->find(name);
    if constexpr (std::is_same_v<Field, double>) {
      field = numberOr(v, field);
    } else if constexpr (std::is_same_v<Field, bool>) {
      field = boolOr(v, field);
    } else {  // an int, or an enum recorded as its integer
      field = static_cast<Field>(integerOr(v, static_cast<int>(field),
                                           std::string("config.") + name,
                                           out.fileIssues));
    }
  });
  if (!parseMethod(stringOr(config->find("method"), "ours"), batch.method)) {
    out.fileIssues.push_back("manifest config.method '" +
                             stringOr(config->find("method"), "") +
                             "' is not a known method");
  }
  batch.allowDegradation = !boolOr(config->find("strict"), false);
  const bool ordered = boolOr(config->find("ordered"), false);
  const bool hier = boolOr(config->find("hier"), false);
  const std::string topCell = stringOr(config->find("top_cell"), "");

  // 5. Re-read the input layout the run fractured.
  const JsonValue* input = doc.find("input");
  const std::string inputPath = resolveArtifactPath(
      manifestDir, stringOr(input != nullptr ? input->find("path") : nullptr,
                            ""));
  // The run's layout is its plan's instance expansion: planned the way
  // the run planned it, so the audit compares section-for-shape against
  // the same shape list (for a --hier run, not the flat ring soup).
  HierPlan plan;
  {
    const Status st = planLayoutFile(inputPath, batch, hier, topCell, plan);
    if (!st.ok()) return st;
  }
  const std::vector<LayoutShape> shapes = planInstanceShapes(plan);
  if (shapes.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "no instantiated shapes in input '" + inputPath + "'");
  }
  const std::int64_t claimedShapesRaw = integerOr<std::int64_t>(
      input != nullptr ? input->find("shapes") : nullptr, -1, "input.shapes",
      out.fileIssues);
  const std::size_t claimedShapes =
      claimedShapesRaw < 0 ? shapes.size()
                           : static_cast<std::size_t>(claimedShapesRaw);
  if (claimedShapes != shapes.size()) {
    out.fileIssues.push_back(
        "manifest says the run covered " + std::to_string(claimedShapes) +
        " shape(s) but the input resolves to " +
        std::to_string(shapes.size()) +
        " — the input layout has changed since the run");
  }

  // 6. Parameter/geometry fingerprint: recomputed over the re-derived
  //    plan and the reconstructed config; a mismatch means the audit
  //    below would compare against the wrong oracle.
  const std::string fingerprint =
      stringOr(config->find("fingerprint"), "");
  if (!fingerprint.empty() && claimedShapes == shapes.size()) {
    const std::string recomputed = planFingerprint(plan, batch);
    if (recomputed != fingerprint) {
      out.fileIssues.push_back(
          "config/geometry fingerprint mismatch: manifest records '" +
          fingerprint + "', recomputed '" + recomputed +
          "' — input or parameters differ from the run");
    }
  }

  // 7. The claims, listed once per plan cell (schema version 2): every
  //    instance of a cell carries them, so they expand over the
  //    re-derived plan's instances in plan order, and findings stay per
  //    instance.
  std::int64_t manifestShotTotal = -1;
  if (const JsonValue* totals = doc.find("totals"); totals != nullptr) {
    manifestShotTotal = integerOr<std::int64_t>(
        totals->find("shots"), -1, "totals.shots", out.fileIssues);
  }
  std::vector<ShapeExpectation> expectations;
  if (const JsonValue* cellList = doc.find("cells");
      cellList != nullptr && cellList->isArray()) {
    std::vector<CellClaims<ShapeExpectation>> cells(cellList->items.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const JsonValue& cell = cellList->items[c];
      const std::string at = "cells[" + std::to_string(c) + "]";
      cells[c].instances = integerOr<std::int64_t>(
          cell.find("instances"), -1, at + ".instances", out.fileIssues);
      const JsonValue* shapeList = cell.find("shapes");
      if (shapeList == nullptr || !shapeList->isArray()) continue;
      for (const JsonValue& s : shapeList->items) {
        const std::string field =
            at + ".shapes[" + std::to_string(cells[c].shapes.size()) + "].";
        ShapeExpectation& e = cells[c].shapes.emplace_back();
        e.method = stringOr(s.find("method"), "");
        e.failOn = integerOr<std::int64_t>(s.find("fail_on"), 0,
                                           field + "fail_on", out.fileIssues);
        e.failOff = integerOr<std::int64_t>(
            s.find("fail_off"), 0, field + "fail_off", out.fileIssues);
        e.cost = numberOr(s.find("cost"), 0.0);
        e.degraded = boolOr(s.find("degraded"), false);
        const JsonValue* status = s.find("status");
        const std::string code = stringOr(
            status != nullptr ? status->find("code") : nullptr, "OK");
        e.completed = code == "OK" || e.degraded;
        e.exactCost = !ordered;
      }
    }
    expectations = expandCellClaims(plan, cells, out.fileIssues);
  } else {
    // A version-1 manifest listed its claims per instance (shapes[]);
    // no reader of that schema is kept.
    out.fileIssues.push_back(
        "manifest has no per-cell claims array (cells[], schema version "
        "2); it says version " +
        std::to_string(integerOr<std::int64_t>(doc.find("version"), 0,
                                               "version", out.fileIssues)) +
        ", whose claims --verify does not read");
  }

  // 8. Read the .shots artifact back and audit it against the claims.
  const JsonValue* output = doc.find("output");
  const std::string shotsPath = resolveArtifactPath(
      manifestDir,
      stringOr(output != nullptr ? output->find("path") : nullptr, ""));
  const Status audited = auditShotsFile(shotsPath, shapes, batch.params,
                                        expectations,
                                        options.threads, out.audit);
  if (!audited.ok()) {
    out.fileIssues.push_back(audited.message());
    return Status();
  }
  if (manifestShotTotal >= 0 && manifestShotTotal != out.audit.shots) {
    out.fileIssues.push_back(
        "manifest totals.shots = " + std::to_string(manifestShotTotal) +
        " but the artifact contains " + std::to_string(out.audit.shots));
  }
  return Status();
}

}  // namespace mbf
