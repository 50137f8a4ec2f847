/**
 * @file
 * db::Txn and the per-thread binding registry: which transactions the
 * calling thread's statements run inside.
 */

#include "db/txn.hh"

#include <cstdio>
#include <cstdlib>

#include "nvm/crash_injector.hh"

namespace espresso {
namespace db {

namespace {

std::atomic<std::uint64_t> g_threadTokens{1};

struct Binding
{
    const void *owner;
    TxnState *state;
};

/** The calling thread's bound transactions: a handful at most (one
 * per engine, plus a bracket's member transactions). */
thread_local std::vector<Binding> t_bound;

Status
misuse(const char *msg)
{
    return Status::make(StatusCode::kMisuse, msg);
}

} // namespace

std::uint64_t
currentThreadToken()
{
    static thread_local const std::uint64_t token =
        g_threadTokens.fetch_add(1, std::memory_order_relaxed);
    return token;
}

TxnState *
boundTxn(const void *owner)
{
    for (const Binding &b : t_bound)
        if (b.owner == owner && b.state->active())
            return b.state;
    return nullptr;
}

Status
TxnState::bind()
{
    if (boundTxn(owner) != nullptr)
        return misuse("db: the calling thread already runs a "
                      "transaction on this engine");
    t_bound.push_back(Binding{owner, this});
    boundTo = currentThreadToken();
    return Status::ok();
}

void
TxnState::unbind()
{
    for (auto it = t_bound.begin(); it != t_bound.end(); ++it) {
        if (it->state == this) {
            t_bound.erase(it);
            break;
        }
    }
    boundTo = 0;
}

Txn &
Txn::operator=(Txn &&o) noexcept
{
    if (this != &o) {
        Txn dropped(std::move(*this));
        state_ = std::move(o.state_);
    }
    return *this;
}

Txn::~Txn()
{
    if (state_ == nullptr)
        return;
    if (foreign()) {
        // Its thread's statements still resolve to this state; freeing
        // it would leave them a dangling binding.
        std::fputs("db: Txn destroyed while bound to another thread\n",
                   stderr);
        std::abort();
    }
    try {
        (void)state_->finish(false);
    } catch (const SimulatedCrash &) {
        // The power failed under the rollback; recovery owns it now.
        state_->lose();
    }
}

bool
Txn::foreign() const
{
    return state_->boundTo != 0 && state_->boundTo != currentThreadToken();
}

Status
Txn::finish(bool commit)
{
    if (state_ == nullptr)
        return misuse("db: empty or finished transaction handle");
    if (foreign())
        return misuse("db: transaction is bound to another thread");
    // Spent even when the finish throws (a power failure): the state
    // is destroyed on the way out, never rolled back again.
    std::unique_ptr<TxnState> state = std::move(state_);
    return state->finish(commit);
}

Status
Txn::commit()
{
    return finish(true);
}

Status
Txn::rollback()
{
    return finish(false);
}

void
Txn::commitAsync(std::function<void(Status)> done)
{
    if (state_ == nullptr || foreign()) {
        done(finish(true));
        return;
    }
    TxnState *state = state_.get();
    state->commitAsync(std::move(state_), std::move(done));
}

Status
Txn::bind()
{
    if (state_ == nullptr)
        return misuse("db: bind of an empty or finished transaction "
                      "handle");
    if (state_->boundTo != 0)
        return misuse("db: transaction is already bound");
    return state_->bind();
}

Status
Txn::unbind()
{
    if (state_ == nullptr || state_->boundTo != currentThreadToken())
        return misuse("db: transaction is not bound to the calling "
                      "thread");
    state_->unbind();
    return Status::ok();
}

} // namespace db
} // namespace espresso
