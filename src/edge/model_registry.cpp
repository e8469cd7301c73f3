#include "edge/model_registry.h"

#include <utility>

#include "edge/server.h"

namespace lcrs::edge {

std::shared_ptr<const ServableModel> ServableModel::from_loaded(
    const core::BundleInfo& info, core::LoadedComposite loaded) {
  auto net = std::make_shared<core::CompositeNetwork>(std::move(loaded.net));
  auto m = std::make_shared<ServableModel>();
  m->model_id = info.model_id;
  m->version = info.version;
  m->name = info.name;
  // The closure captures *net by reference; m->net pins it for the
  // snapshot's lifetime, so the completion stays valid for exactly as
  // long as any holder (queue entry, in-flight batch) can call it.
  m->complete = main_branch_batch_completion(*net);
  m->net = std::move(net);
  return m;
}

std::shared_ptr<const ServableModel> ServableModel::from_fn(
    std::uint32_t model_id, std::uint32_t version, std::string name,
    BatchCompletionFn complete) {
  auto m = std::make_shared<ServableModel>();
  m->model_id = model_id;
  m->version = version;
  m->name = std::move(name);
  m->complete = std::move(complete);
  return m;
}

namespace {
/// Drops expired retirees; returns how many are still pinned.
std::size_t prune_expired(std::vector<std::weak_ptr<const ServableModel>>* v) {
  std::size_t live = 0;
  auto out = v->begin();
  for (auto& w : *v) {
    if (!w.expired()) {
      *out++ = std::move(w);
      ++live;
    }
  }
  v->erase(out, v->end());
  return live;
}
}  // namespace

void ModelRegistry::install(std::shared_ptr<const ServableModel> model) {
  LCRS_CHECK(model != nullptr && model->complete != nullptr,
             "registry install needs a snapshot with a completion fn");
  LCRS_CHECK(model->version >= 1, "registry install needs version >= 1, got "
                                      << model->version);
  const std::uint32_t id = model->model_id;
  bool replaced = false;
  {
    MutexLock lock(mutex_);
    auto it = models_.find(id);
    if (it != models_.end()) {
      if (model->version <= it->second->version) {
        throw InvalidArgument(
            "model " + std::to_string(id) + " version must increase: have " +
            std::to_string(it->second->version) + ", got " +
            std::to_string(model->version));
      }
      // Retire the incumbent: in-flight holders keep it alive; the weak
      // reference lets live_models() observe the drain finishing.
      retired_.push_back(it->second);
      it->second = std::move(model);
      replaced = true;
    } else {
      models_.emplace(id, std::move(model));
    }
    models_gauge_.set(static_cast<double>(models_.size()));
    live_gauge_.set(
        static_cast<double>(models_.size() + prune_expired(&retired_)));
  }
  if (replaced) swaps_.add();
}

std::shared_ptr<const ServableModel> ModelRegistry::lookup(
    std::uint32_t model_id) const {
  MutexLock lock(mutex_);
  auto it = models_.find(model_id);
  return it != models_.end() ? it->second : nullptr;
}

bool ModelRegistry::evict(std::uint32_t model_id) {
  bool removed = false;
  {
    MutexLock lock(mutex_);
    auto it = models_.find(model_id);
    if (it != models_.end()) {
      retired_.push_back(it->second);
      models_.erase(it);
      removed = true;
    }
    models_gauge_.set(static_cast<double>(models_.size()));
    live_gauge_.set(
        static_cast<double>(models_.size() + prune_expired(&retired_)));
  }
  if (removed) evictions_.add();
  return removed;
}

std::vector<std::shared_ptr<const ServableModel>> ModelRegistry::list() const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<const ServableModel>> out;
  out.reserve(models_.size());
  for (const auto& [id, m] : models_) out.push_back(m);
  return out;
}

std::int64_t ModelRegistry::size() const {
  MutexLock lock(mutex_);
  return static_cast<std::int64_t>(models_.size());
}

std::int64_t ModelRegistry::live_models() {
  MutexLock lock(mutex_);
  const std::size_t live = models_.size() + prune_expired(&retired_);
  live_gauge_.set(static_cast<double>(live));
  return static_cast<std::int64_t>(live);
}

}  // namespace lcrs::edge
