/**
 * @file
 * A memo that computes each key's value once, with no lock held while
 * it computes.
 *
 * The trace store and the footprint memos (core/experiment.cc) are
 * asked for one key by every engine worker at once, and for other
 * keys by the workers running other apps. One lock held across the
 * work would serialize the other keys too: a batch over five apps
 * would bake their traces one after another. OnceMap holds its lock
 * only to find or insert a key's entry. The first requester of a key
 * computes the value outside the lock; later requesters of that key
 * wait for it, and requesters of other keys compute theirs meanwhile.
 */

#ifndef SGMS_COMMON_ONCE_MAP_H
#define SGMS_COMMON_ONCE_MAP_H

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

namespace sgms
{

template <typename Key, typename Value>
class OnceMap
{
  public:
    /**
     * The value of @p key: the stored one, the one another caller is
     * computing (waited for), or @p make() run here. If make() throws,
     * the key stays unset, the exception propagates, and a caller
     * waiting on the key computes it in turn.
     */
    template <typename Make>
    Value
    get(const Key &key, Make &&make)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            auto it = entries_.find(key);
            if (it == entries_.end())
                break;
            std::shared_ptr<Entry> e = it->second;
            done_.wait(lock, [&] { return e->state != State::Making; });
            if (e->state == State::Ready)
                return e->value;
        }
        auto e = std::make_shared<Entry>();
        entries_.emplace(key, e);
        lock.unlock();
        try {
            Value v = make();
            lock.lock();
            e->value = std::move(v);
            e->state = State::Ready;
        } catch (...) {
            lock.lock();
            e->state = State::Failed;
            auto it = entries_.find(key);
            if (it != entries_.end() && it->second == e)
                entries_.erase(it);
            done_.notify_all();
            throw;
        }
        done_.notify_all();
        return e->value;
    }

    /**
     * Forget every key. A value still being computed is dropped when
     * its maker finishes; its waiters still receive it.
     */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
    }

  private:
    enum class State
    {
        Making,
        Ready,
        Failed,
    };

    struct Entry
    {
        State state = State::Making;
        Value value{};
    };

    std::mutex mutex_;
    std::condition_variable done_;
    std::map<Key, std::shared_ptr<Entry>> entries_;
};

} // namespace sgms

#endif // SGMS_COMMON_ONCE_MAP_H
