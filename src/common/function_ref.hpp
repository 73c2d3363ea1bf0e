// Non-owning reference to a callable.
//
// Hot paths that take a callback only for the duration of one call (the
// GGD walk's root predicate, the packet reader's per-message hook) need
// neither std::function's ownership nor its type-erased copy: a pointer
// to the caller's callable plus one trampoline is enough. The referenced
// callable must outlive every call through the reference — bind it to a
// named object, or to a temporary consumed within the same full
// expression.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace cgc {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): binds like a callable
  FunctionRef(F&& f)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace cgc
