// A site: one independently-managed address space of the distributed
// system (§2), holding local objects, local roots, proxies for remote
// objects, and the export table of global roots.
//
// Terminology (paper, §2.1):
//   * local roots      — objects arbitrarily designated as roots.
//   * global roots     — local objects alleged to be referenced remotely;
//                        conservatively part of the local GC root set
//                        until GGD proves otherwise.
//   * proxies          — local stand-ins for remote objects; a proxy being
//                        collected by local GC is what destroys an edge of
//                        the global root graph.
#pragma once

#include <map>
#include <set>

#include "common/assert.hpp"
#include "runtime/object.hpp"

namespace cgc {

class Site {
 public:
  explicit Site(SiteId id) : id_(id) {}

  [[nodiscard]] SiteId id() const { return id_; }

  ManagedObject& add_object(ObjectId id) {
    auto [it, inserted] = objects_.emplace(id, ManagedObject(id));
    CGC_CHECK_MSG(inserted, "object id already present on site");
    return it->second;
  }

  [[nodiscard]] bool has_object(ObjectId id) const {
    return objects_.contains(id);
  }
  [[nodiscard]] ManagedObject& object(ObjectId id) {
    auto it = objects_.find(id);
    CGC_CHECK_MSG(it != objects_.end(), "unknown object on site");
    return it->second;
  }
  [[nodiscard]] const ManagedObject& object(ObjectId id) const {
    auto it = objects_.find(id);
    CGC_CHECK_MSG(it != objects_.end(), "unknown object on site");
    return it->second;
  }
  void remove_object(ObjectId id) { objects_.erase(id); }

  [[nodiscard]] const std::map<ObjectId, ManagedObject>& objects() const {
    return objects_;
  }

  // Local roots.
  void add_local_root(ObjectId id) { local_roots_.insert(id); }
  [[nodiscard]] const std::set<ObjectId>& local_roots() const {
    return local_roots_;
  }

  // Proxies: local handles for remote objects. The runtime records which
  // remote object a proxy denotes; here we track mere existence.
  void add_proxy(ObjectId remote) { proxies_.insert(remote); }
  void remove_proxy(ObjectId remote) { proxies_.erase(remote); }
  [[nodiscard]] bool has_proxy(ObjectId remote) const {
    return proxies_.contains(remote);
  }
  [[nodiscard]] const std::set<ObjectId>& proxies() const { return proxies_; }

  // Export table: local objects that are global roots.
  void add_export(ObjectId id) { exports_.insert(id); }
  void remove_export(ObjectId id) { exports_.erase(id); }
  [[nodiscard]] bool is_exported(ObjectId id) const {
    return exports_.contains(id);
  }
  [[nodiscard]] const std::set<ObjectId>& exports() const { return exports_; }

 private:
  SiteId id_;
  std::map<ObjectId, ManagedObject> objects_;
  std::set<ObjectId> local_roots_;
  std::set<ObjectId> proxies_;
  std::set<ObjectId> exports_;
};

}  // namespace cgc
