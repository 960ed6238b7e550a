#include "core/candidate_index.h"

#include "util/string_util.h"

namespace pullmon {

CandidateIndex::CandidateIndex(int num_resources, Chronon epoch_length)
    : num_resources_(num_resources < 0 ? 0 : num_resources),
      epoch_length_(epoch_length < 0 ? 0 : epoch_length),
      starting_at_(static_cast<std::size_t>(epoch_length_)),
      ending_at_(static_cast<std::size_t>(epoch_length_)),
      live_on_resource_(static_cast<std::size_t>(num_resources_)),
      live_count_(static_cast<std::size_t>(num_resources_), 0),
      in_play_(static_cast<std::size_t>(num_resources_), false),
      deadline_heap_(static_cast<std::size_t>(num_resources_)),
      stale_(static_cast<std::size_t>(num_resources_), 1),
      cached_best_(static_cast<std::size_t>(num_resources_)),
      merged_(static_cast<std::size_t>(num_resources_), 0) {}

int CandidateIndex::AddEi(const ExecutionInterval& ei, int t_id,
                          int ei_index) {
  PULLMON_CHECK(ei.resource >= 0 && ei.resource < num_resources_);
  PULLMON_CHECK(ei.start >= 0 && ei.finish < epoch_length_);
  int flat_id = static_cast<int>(eis_.size());
  eis_.push_back(IndexedEi{ei, t_id, ei_index, false, false, false});
  starting_at_[static_cast<std::size_t>(ei.start)].push_back(flat_id);
  ending_at_[static_cast<std::size_t>(ei.finish)].push_back(flat_id);
  return flat_id;
}

void CandidateIndex::Activate(int flat_id) {
  IndexedEi& flat = eis_[static_cast<std::size_t>(flat_id)];
  flat.active = true;
  ResourceId r = flat.ei.resource;
  live_on_resource_[static_cast<std::size_t>(r)].push_back(flat_id);
  ++live_count_[static_cast<std::size_t>(r)];
  auto& heap = deadline_heap_[static_cast<std::size_t>(r)];
  heap.emplace_back(flat.ei.finish, flat_id);
  std::push_heap(heap.begin(), heap.end(),
                 std::greater<std::pair<Chronon, int>>());
  if (!in_play_[static_cast<std::size_t>(r)]) {
    in_play_[static_cast<std::size_t>(r)] = true;
    active_resources_.push_back(r);
  }
}

void CandidateIndex::RemoveFromPlay(int flat_id) {
  IndexedEi& flat = eis_[static_cast<std::size_t>(flat_id)];
  flat.dead = true;
  if (!flat.active) return;
  // The entry stays in its resource list until the next lazy compaction;
  // only the exact counter is settled here, and the resource's cached
  // key goes stale if this EI held it.
  const std::size_t r = static_cast<std::size_t>(flat.ei.resource);
  --live_count_[r];
  if (cached_best_[r].flat_id == flat_id) stale_[r] = 1;
  MaybeCompactHeap(flat.ei.resource);
}

void CandidateIndex::MaybeCompactHeap(ResourceId resource) {
  const int live = live_count_[static_cast<std::size_t>(resource)];
  const int corpses = DeadlineHeapCorpses(resource);
  if (corpses <= kHeapCompactionMinCorpses || corpses <= 2 * live) return;
  auto& heap = deadline_heap_[static_cast<std::size_t>(resource)];
  heap.erase(std::remove_if(heap.begin(), heap.end(),
                            [this](const std::pair<Chronon, int>& entry) {
                              return eis_[static_cast<std::size_t>(
                                              entry.second)]
                                  .dead;
                            }),
             heap.end());
  std::make_heap(heap.begin(), heap.end(),
                 std::greater<std::pair<Chronon, int>>());
}

void CandidateIndex::Deactivate(int flat_id) {
  if (eis_[static_cast<std::size_t>(flat_id)].dead) return;
  RemoveFromPlay(flat_id);
}

Chronon CandidateIndex::EarliestDeadline(ResourceId resource) const {
  auto& heap = deadline_heap_[static_cast<std::size_t>(resource)];
  auto greater = std::greater<std::pair<Chronon, int>>();
  while (!heap.empty()) {
    const IndexedEi& top =
        eis_[static_cast<std::size_t>(heap.front().second)];
    if (!top.dead) return heap.front().first;
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
  }
  return -1;
}

Status CandidateIndex::CheckInvariants() const {
  std::vector<int> list_occurrences(eis_.size(), 0);
  for (ResourceId r = 0; r < num_resources_; ++r) {
    const auto& bucket = live_on_resource_[static_cast<std::size_t>(r)];
    int non_dead = 0;
    for (int id : bucket) {
      if (id < 0 || id >= static_cast<int>(eis_.size())) {
        return Status::InvalidArgument(StringFormat(
            "resource %d live list holds out-of-range flat id %d", r, id));
      }
      const IndexedEi& flat = eis_[static_cast<std::size_t>(id)];
      if (flat.ei.resource != r) {
        return Status::InvalidArgument(StringFormat(
            "flat id %d (resource %d) filed under resource %d's live list",
            id, flat.ei.resource, r));
      }
      ++list_occurrences[static_cast<std::size_t>(id)];
      if (!flat.dead) {
        ++non_dead;
        if (!flat.active) {
          return Status::InvalidArgument(StringFormat(
              "flat id %d is listed live on resource %d but not active",
              id, r));
        }
      }
    }
    if (live_count_[static_cast<std::size_t>(r)] != non_dead) {
      return Status::InvalidArgument(StringFormat(
          "resource %d live counter %d != %d non-dead list entries", r,
          live_count_[static_cast<std::size_t>(r)], non_dead));
    }
    if (non_dead > 0 && !in_play_[static_cast<std::size_t>(r)]) {
      return Status::InvalidArgument(StringFormat(
          "resource %d holds %d live candidates but is not in play", r,
          non_dead));
    }
    // Audit the lazy deadline heap: entries must be well-formed, each
    // non-dead one must be an active EI of this resource with a matching
    // deadline, and the corpse identity (heap size - live counter) must
    // agree with a direct count — the quantity MaybeCompactHeap keys on.
    const auto& heap = deadline_heap_[static_cast<std::size_t>(r)];
    int heap_live = 0;
    for (const auto& entry : heap) {
      if (entry.second < 0 ||
          entry.second >= static_cast<int>(eis_.size())) {
        return Status::InvalidArgument(StringFormat(
            "resource %d deadline heap holds out-of-range flat id %d", r,
            entry.second));
      }
      const IndexedEi& flat = eis_[static_cast<std::size_t>(entry.second)];
      if (flat.ei.resource != r) {
        return Status::InvalidArgument(StringFormat(
            "flat id %d (resource %d) filed in resource %d's deadline heap",
            entry.second, flat.ei.resource, r));
      }
      if (flat.dead) continue;
      ++heap_live;
      if (!flat.active) {
        return Status::InvalidArgument(StringFormat(
            "flat id %d sits live in resource %d's deadline heap but is "
            "not active",
            entry.second, r));
      }
      if (entry.first != flat.ei.finish) {
        return Status::InvalidArgument(StringFormat(
            "flat id %d heap deadline %d != EI finish %d", entry.second,
            entry.first, flat.ei.finish));
      }
    }
    if (heap_live != live_count_[static_cast<std::size_t>(r)]) {
      return Status::InvalidArgument(StringFormat(
          "resource %d deadline heap holds %d live entries but the live "
          "counter says %d (corpse accounting broken)",
          r, heap_live, live_count_[static_cast<std::size_t>(r)]));
    }
    // A fresh cached key must name a live EI inside the merged prefix
    // of this resource's list (its death would have made it stale).
    if (stale_[static_cast<std::size_t>(r)]) continue;
    if (!cache_keys_) {
      return Status::InvalidArgument(StringFormat(
          "resource %d holds a fresh cached key with the cache off", r));
    }
    const std::size_t merged = merged_[static_cast<std::size_t>(r)];
    const int best = cached_best_[static_cast<std::size_t>(r)].flat_id;
    if (merged > bucket.size() ||
        std::find(bucket.begin(),
                  bucket.begin() + static_cast<std::ptrdiff_t>(merged),
                  best) ==
            bucket.begin() + static_cast<std::ptrdiff_t>(merged) ||
        eis_[static_cast<std::size_t>(best)].dead) {
      return Status::InvalidArgument(StringFormat(
          "resource %d cached key names flat id %d, which is not a live "
          "EI of its merged list prefix",
          r, best));
    }
  }
  // A resource flagged in play must actually sit on the active list.
  std::vector<uint8_t> on_active_list(
      static_cast<std::size_t>(num_resources_), 0);
  for (ResourceId r : active_resources_) {
    if (r < 0 || r >= num_resources_) {
      return Status::InvalidArgument(
          StringFormat("active-resource list holds bogus resource %d", r));
    }
    on_active_list[static_cast<std::size_t>(r)] = 1;
  }
  for (ResourceId r = 0; r < num_resources_; ++r) {
    if (in_play_[static_cast<std::size_t>(r)] &&
        !on_active_list[static_cast<std::size_t>(r)]) {
      return Status::InvalidArgument(StringFormat(
          "resource %d flagged in play but missing from the active list",
          r));
    }
  }
  for (std::size_t id = 0; id < eis_.size(); ++id) {
    const IndexedEi& flat = eis_[id];
    if (flat.captured && !flat.dead) {
      return Status::InvalidArgument(
          StringFormat("flat id %zu captured but not dead", id));
    }
    if (!flat.active || flat.dead) continue;
    // A live candidate occupies exactly one live-list slot...
    if (list_occurrences[id] != 1) {
      return Status::InvalidArgument(StringFormat(
          "live flat id %zu appears %d times in resource %d's live list",
          id, list_occurrences[id], flat.ei.resource));
    }
    // ... and is represented in its resource's lazy deadline heap.
    const auto& heap =
        deadline_heap_[static_cast<std::size_t>(flat.ei.resource)];
    bool in_heap = false;
    for (const auto& entry : heap) {
      if (entry.second == static_cast<int>(id) &&
          entry.first == flat.ei.finish) {
        in_heap = true;
        break;
      }
    }
    if (!in_heap) {
      return Status::InvalidArgument(StringFormat(
          "live flat id %zu missing from resource %d's deadline heap", id,
          flat.ei.resource));
    }
  }
  return Status::OK();
}

Status CandidateIndex::CacheMismatch(ResourceId resource,
                                     int rescanned_flat_id) const {
  const ResourceCandidate& cached =
      cached_best_[static_cast<std::size_t>(resource)];
  return Status::InvalidArgument(StringFormat(
      "resource %d cached key (class %d, score %g, deadline %d, flat id "
      "%d) differs from a rescan (best flat id %d): a stale trigger was "
      "missed",
      resource, cached.np_class, cached.score, cached.deadline,
      cached.flat_id, rescanned_flat_id));
}

std::size_t CandidateIndex::SelectTopResources(
    std::vector<ResourceCandidate>* entries, int budget) {
  auto key_less = [](const ResourceCandidate& a,
                     const ResourceCandidate& b) {
    if (a.np_class != b.np_class) return a.np_class < b.np_class;
    if (a.score != b.score) return a.score < b.score;
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.flat_id < b.flat_id;
  };
  if (budget <= 0) return 0;
  std::size_t take = std::min(entries->size(),
                              static_cast<std::size_t>(budget));
  if (take < entries->size()) {
    std::nth_element(entries->begin(),
                     entries->begin() + static_cast<std::ptrdiff_t>(take),
                     entries->end(), key_less);
  }
  std::sort(entries->begin(),
            entries->begin() + static_cast<std::ptrdiff_t>(take), key_less);
  return take;
}

}  // namespace pullmon
