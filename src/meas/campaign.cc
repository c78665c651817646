#include "meas/campaign.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "util/atomic_io.h"

namespace pathsel::meas {

namespace {

std::string output_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".ds";
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

}  // namespace

std::vector<std::string> expand_datasets(
    const std::vector<std::string>& requested) {
  const std::vector<std::string>& all = Catalog::dataset_names();
  if (requested.empty()) return all;
  std::unordered_set<std::string> want{requested.begin(), requested.end()};
  for (const std::string& name : requested) {
    // Derived datasets are filtered views of their parents.
    const std::string_view parent = Catalog::parent_of(name);
    if (!parent.empty()) want.emplace(parent);
  }
  std::vector<std::string> out;
  for (const std::string& name : all) {
    if (want.contains(name)) out.push_back(name);
  }
  // Unknown names survive at the end so callers can report them.
  for (const std::string& name : requested) {
    if (!Catalog::is_dataset_name(name)) out.push_back(name);
  }
  return out;
}

CampaignReport run_campaign(const CampaignOptions& options) {
  CampaignReport report;
  auto fail = [&report](ErrorCode code, std::string message) {
    report.status = Status::error(code, std::move(message));
    return report;
  };

  if (options.output_dir.empty()) {
    return fail(ErrorCode::kInvalidArgument, "campaign needs an output dir");
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    return fail(ErrorCode::kInvalidArgument,
                "resume requires a checkpoint dir");
  }
  for (const std::string& name : options.datasets) {
    if (!Catalog::is_dataset_name(name)) {
      return fail(ErrorCode::kInvalidArgument, "unknown dataset: " + name);
    }
  }
  const Status made_out = ensure_directory(options.output_dir);
  if (!made_out.is_ok()) {
    report.status = made_out;
    return report;
  }

  Catalog catalog{options.catalog};
  const std::vector<std::string> names = expand_datasets(options.datasets);
  const bool checkpointing = !options.checkpoint_dir.empty();
  std::size_t checkpoint_writes = 0;
  // Datasets collected this run that a later entry still derives a subset
  // from; every other collection is dropped once it is written.
  std::unordered_map<std::string, Dataset> produced;
  const auto derived_after = [&names](std::size_t i, std::string_view parent) {
    return std::any_of(names.begin() + static_cast<std::ptrdiff_t>(i + 1),
                       names.end(), [parent](const std::string& later) {
                         return Catalog::parent_of(later) == parent;
                       });
  };

  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      report.status = options.cancel->status();
      return report;
    }
    const std::string out_path = output_path(options.output_dir, name);
    if (options.resume && file_exists(out_path)) {
      report.loaded.push_back(name);
      continue;  // a finished output is never regenerated under resume
    }

    const DatasetSpec spec = catalog.spec(name);

    if (!spec.parent.empty()) {
      // Derived dataset: filter the parent, which either was produced this
      // run or sits finished in the output directory.
      const auto it = produced.find(spec.parent);
      Dataset derived;
      if (it != produced.end()) {
        derived = Catalog::subset(it->second, name, spec.hosts);
      } else {
        Result<Dataset> parent =
            load_dataset(output_path(options.output_dir, spec.parent));
        if (!parent.is_ok()) {
          report.status = parent.status();
          return report;
        }
        derived = Catalog::subset(parent.value(), name, spec.hosts);
      }
      const Status wrote = save_dataset(out_path, derived);
      if (!wrote.is_ok()) {
        report.status = wrote;
        return report;
      }
      report.completed.push_back(name);
      if (!derived_after(i, spec.parent)) produced.erase(spec.parent);
      continue;
    }

    const MaterializedSpec mat = catalog.materialize(spec);
    // Campaign-level analysis modes participate in the checkpoint identity:
    // resuming a --disjoint 3 campaign from a --disjoint 2 (or plain)
    // checkpoint must be rejected as stale, not spliced.
    const std::uint64_t fingerprint = fold_fingerprint(
        fold_fingerprint(mat.fingerprint,
                         static_cast<std::uint64_t>(options.disjoint_k)),
        options.extra_fingerprint);
    // One store per collection, so the saved-row text it caches is freed
    // when the collection ends.
    CheckpointStore store{options.checkpoint_dir};
    CollectControls controls;
    controls.cancel = options.cancel;
    controls.threads = options.threads;
    std::optional<CampaignCheckpoint> resume_from;
    if (checkpointing) {
      controls.checkpoint_interval =
          Duration::millis(1) < options.checkpoint_interval
              ? options.checkpoint_interval
              : mat.config.duration * 0.125;
      controls.on_checkpoint =
          [&store, &mat, fingerprint, &checkpoint_writes,
           &options](const CampaignCheckpoint& cp) -> Status {
        const Status saved = store.save(cp, mat.config.kind, fingerprint);
        if (!saved.is_ok()) return saved;
        ++checkpoint_writes;
        if (options.after_checkpoint) options.after_checkpoint(checkpoint_writes);
        return Status::ok();
      };
      if (options.resume) {
        CheckpointLoad load = store.load(name, mat.config.kind, fingerprint);
        for (std::string& reason : load.discarded) {
          report.notes.push_back("discarded checkpoint: " + reason);
        }
        if (load.checkpoint.has_value()) {
          resume_from = std::move(load.checkpoint);
          report.resumed.push_back(name);
        }
      }
    }

    Result<Dataset> collected =
        collect_resumable(*mat.net, mat.hosts, mat.config, name, controls,
                          std::move(resume_from));
    if (!collected.is_ok()) {
      report.status = collected.status();
      const ErrorCode code = collected.status().code();
      if (code == ErrorCode::kDeadlineExceeded || code == ErrorCode::kCancelled) {
        report.stopped_in = name;
      }
      return report;
    }
    const Status wrote = save_dataset(out_path, collected.value());
    if (!wrote.is_ok()) {
      report.status = wrote;
      return report;
    }
    report.completed.push_back(name);
    if (derived_after(i, name)) {
      produced.emplace(name, std::move(collected.value()));
    }
  }

  return report;
}

}  // namespace pathsel::meas
