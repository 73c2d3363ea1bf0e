// A distributed directory service — the kind of persistent shared-object
// workload the paper's introduction motivates. Directory nodes live on
// different sites and reference each other freely (including cycles:
// every child holds a ".." reference to its parent). Sessions browse the
// directory, holding and releasing references; pruning a subtree strands
// a cross-site cyclic structure that only comprehensive GGD can reclaim.
//
//   build/examples/example_distributed_directory
#include <iostream>
#include <vector>

#include "runtime/runtime.hpp"

int main() {
  using namespace cgc;
  DistributedRuntime rt;

  // Three storage sites and one front-end site with the session roots.
  const SiteId store1 = rt.add_site();
  const SiteId store2 = rt.add_site();
  const SiteId store3 = rt.add_site();
  const SiteId frontend = rt.add_site();
  const ObjectId session = rt.create_root_object(frontend);
  const ObjectId admin = rt.create_root_object(store1);

  // The directory tree, spread over the storage sites:
  //   /        (store1)
  //   /home    (store2)   /home/..  -> /
  //   /home/a  (store3)   /home/a/.. -> /home
  //   /home/b  (store2)   /home/b/.. -> /home
  const ObjectId root_dir = rt.create_object(store1, admin);
  const ObjectId home = rt.create_object(store2, rt.create_root_object(store2));
  const ObjectId a = rt.create_object(store3, rt.create_root_object(store3));
  const ObjectId b = rt.create_object(store2, home);  // /home -> /home/b
  rt.add_local_ref(b, home);                          // /home/b/.. -> /home
  // Wire the tree across sites: parents reference children...
  rt.send_ref(rt.site(store2).local_roots().empty()
                  ? admin
                  : *rt.site(store2).local_roots().begin(),
              root_dir, home);  // / -> /home
  rt.run();
  rt.send_ref(*rt.site(store3).local_roots().begin(), home, a);
  rt.run();
  // ...and children reference their parents (the ".." back-links that make
  // the structure cyclic across sites).
  rt.send_ref(admin, home, root_dir);  // /home/.. -> /
  rt.run();
  rt.send_ref(*rt.site(store2).local_roots().begin(), a, home);
  rt.run();

  // The bootstrap roots hand over: only the admin's reference to "/" and
  // the session's browsing references should keep things alive.
  for (SiteId s : {store2, store3}) {
    const ObjectId boot = *rt.site(s).local_roots().begin();
    for (ObjectId held : std::vector<ObjectId>(
             rt.site(s).object(boot).slots().begin(),
             rt.site(s).object(boot).slots().end())) {
      rt.drop_ref(boot, held);
    }
  }
  rt.collect_all();
  std::cout << "directory built: " << rt.total_objects()
            << " objects across 4 sites\n";
  std::cout << "/home exists=" << rt.object_exists(home)
            << "  /home/a exists=" << rt.object_exists(a)
            << "  (held via / and the .. cycle)\n\n";

  // A session browses /home/a: it acquires a direct remote reference.
  rt.send_ref(admin, session, root_dir);
  rt.run();
  rt.send_ref(rt.owner_of(root_dir) == store1 ? root_dir : root_dir, session,
              home);
  rt.run();
  std::cout << "session holds /home directly\n";

  // The admin prunes /home from "/": the whole /home subtree — a cyclic,
  // cross-site structure — is now held only by the session.
  rt.drop_ref(root_dir, home);
  rt.collect_all();
  std::cout << "after prune: /home exists=" << rt.object_exists(home)
            << " (session still browsing)\n";

  // The session ends. No single site can tell the subtree is garbage: /home
  // references a (store3), a references /home back (store2), and /home
  // references / which is live. Comprehensive GGD reclaims exactly the
  // subtree and nothing else.
  rt.drop_ref(session, home);
  rt.drop_ref(session, root_dir);
  rt.collect_all();
  std::cout << "after session ends: /home exists=" << rt.object_exists(home)
            << "  /home/a exists=" << rt.object_exists(a)
            << "  /home/b exists=" << rt.object_exists(b)
            << "  / exists=" << rt.object_exists(root_dir) << "\n";

  const bool ok = !rt.object_exists(home) && !rt.object_exists(a) &&
                  !rt.object_exists(b) && rt.object_exists(root_dir);
  std::cout << (ok ? "\ncross-site cyclic subtree comprehensively collected; "
                     "live directory untouched\n"
                   : "\nUNEXPECTED STATE\n");
  return ok ? 0 : 1;
}
