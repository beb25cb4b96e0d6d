/**
 * @file
 * Fixed-capacity FIFO over a power-of-two slot array.
 *
 * The pipeline queues of the out-of-order core (ROB, fetch queue,
 * store queue) never hold more than a configured number of entries,
 * so they need no allocation after construction. RingBuffer keeps
 * monotonically increasing 64-bit head and tail *positions*: entry
 * number p (counting every push since the last reset) lives in slot
 * `p & mask`, and is live iff `headPos() <= p < tailPos()`. The ROB
 * resets its position to the first sequence number, so a micro-op's
 * sequence number is its position and finding it is one bounds check
 * and one mask, with no offset arithmetic against the head.
 *
 * Slots are reused, not destroyed: popFront() only advances the head,
 * and pushBack() hands back the tail slot still holding whatever it
 * held before, for the caller to overwrite in place. The slot array is
 * allocated on the first push or tailSlot() call, not at construction,
 * so building a chip costs no more than it did with growing deques.
 */

#ifndef HETSIM_COMMON_RING_BUFFER_HH
#define HETSIM_COMMON_RING_BUFFER_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace hetsim
{

template <typename T>
class RingBuffer
{
  public:
    /** Room for at least `min_capacity` entries (rounded up to a
     *  power of two), starting empty at position `start`. */
    explicit RingBuffer(size_t min_capacity, uint64_t start = 0)
        : capacity_(std::bit_ceil(min_capacity < 1 ? size_t{1}
                                                   : min_capacity)),
          mask_(capacity_ - 1), head_(start), tail_(start)
    {
    }

    bool empty() const { return head_ == tail_; }
    size_t size() const { return static_cast<size_t>(tail_ - head_); }
    size_t capacity() const { return capacity_; }
    bool full() const { return size() == capacity(); }

    /** Oldest live position, and one past the youngest. @{ */
    uint64_t headPos() const { return head_; }
    uint64_t tailPos() const { return tail_; }
    /** @} */

    /** Position `pos` is live (pushed and not yet popped). */
    bool holds(uint64_t pos) const { return head_ <= pos && pos < tail_; }

    /** Slot of the live position `pos`. @{ */
    T &atPos(uint64_t pos) { return slots_[pos & mask_]; }
    const T &atPos(uint64_t pos) const { return slots_[pos & mask_]; }
    /** @} */

    /** The i-th live entry counting from the oldest. @{ */
    T &operator[](size_t i) { return atPos(head_ + i); }
    const T &operator[](size_t i) const { return atPos(head_ + i); }
    /** @} */

    /** The slot the next pushBack() makes live. The const overload
     *  requires the slot array to exist (an earlier push or non-const
     *  tailSlot() call). @{ */
    T &
    tailSlot()
    {
        allocate();
        return atPos(tail_);
    }
    const T &tailSlot() const { return atPos(tail_); }
    /** @} */

    T &front() { return atPos(head_); }
    const T &front() const { return atPos(head_); }

    /** Make the tail slot live and return it, holding its stale
     *  contents, for the caller to overwrite. */
    T &
    pushBack()
    {
        hetsim_assert(!full(), "ring buffer overflow (capacity %zu)",
                      capacity());
        allocate();
        return atPos(tail_++);
    }

    void pushBack(const T &v) { pushBack() = v; }

    void
    popFront()
    {
        hetsim_assert(!empty(), "pop from an empty ring buffer");
        ++head_;
    }

    /** Drop every entry and restart at position `start`. */
    void reset(uint64_t start = 0) { head_ = tail_ = start; }

  private:
    void
    allocate()
    {
        if (slots_.empty())
            slots_.resize(capacity_);
    }

    std::vector<T> slots_; ///< Empty until first needed, then capacity_.
    size_t capacity_;
    uint64_t mask_;
    uint64_t head_;
    uint64_t tail_;
};

} // namespace hetsim

#endif // HETSIM_COMMON_RING_BUFFER_HH
