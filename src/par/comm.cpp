#include "par/comm.hpp"

#include <exception>
#include <thread>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"

namespace caraml::par {

namespace {

// Collective-traffic telemetry. Every rank's call counts once, matching how
// NCCL/Horovod profilers attribute per-rank traffic; bytes are the tensor
// payload (fp32).
telemetry::Counter& collective_counter(const char* name) {
  return telemetry::Registry::global().counter(name);
}

std::int64_t tensor_bytes(const Tensor& value) {
  return value.numel() * static_cast<std::int64_t>(sizeof(float));
}

}  // namespace

DeviceGroup::DeviceGroup(int size) : size_(size) {
  CARAML_CHECK_MSG(size >= 1, "device group needs at least one rank");
  pointers_.assign(static_cast<std::size_t>(size), nullptr);
}

void DeviceGroup::barrier_impl() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t my_generation = generation_;
  if (++arrived_ == size_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
}

void DeviceGroup::collect_pointer(int rank, const void* pointer) {
  std::lock_guard<std::mutex> lock(mutex_);
  pointers_[static_cast<std::size_t>(rank)] = pointer;
}

void DeviceGroup::run(const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, &fn, &errors, r] {
      Communicator comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

int Communicator::size() const { return group_->size(); }

void Communicator::barrier() {
  collective_counter("par/barriers").add();
  group_->barrier_impl();
}

void Communicator::all_reduce_sum(Tensor& value) {
  collective_counter("par/allreduce_calls").add();
  collective_counter("par/allreduce_bytes").add(tensor_bytes(value));
  // Rendezvous: publish pointers, barrier, everyone reads all contributions
  // into a private sum, barrier (so no one mutates while others read), then
  // each rank installs its privately computed sum.
  group_->collect_pointer(rank_, &value);
  barrier();
  Tensor sum(value.shape());
  bool shapes_match = true;
  for (int r = 0; r < size() && shapes_match; ++r) {
    const auto* contribution =
        static_cast<const Tensor*>(group_->pointer_of(r));
    shapes_match = contribution->same_shape(value);
    if (shapes_match) tensor::add_inplace(sum, *contribution);
  }
  barrier();  // all reads done before anyone overwrites or unwinds
  // Throw only now: a rank that unwound during the reads would free a tensor
  // the others still read. Every rank reaches the same verdict, since if not
  // all shapes are equal, each rank sees one unlike its own.
  CARAML_CHECK_MSG(shapes_match, "all_reduce shape mismatch across ranks");
  value = std::move(sum);
  barrier();  // all writes done before pointers are reused
}

void Communicator::all_reduce_mean(Tensor& value) {
  all_reduce_sum(value);
  const float inv = 1.0f / static_cast<float>(size());
  for (std::int64_t i = 0; i < value.numel(); ++i) value[i] *= inv;
}

void Communicator::broadcast(Tensor& value, int root) {
  CARAML_CHECK_MSG(root >= 0 && root < size(), "broadcast root out of range");
  collective_counter("par/broadcasts").add();
  group_->collect_pointer(rank_, &value);
  barrier();
  if (rank_ != root) {
    const auto* source = static_cast<const Tensor*>(group_->pointer_of(root));
    value = *source;  // deep copy
  }
  barrier();
}

std::vector<Tensor> Communicator::all_gather(const Tensor& value) {
  collective_counter("par/allgather_calls").add();
  group_->collect_pointer(rank_, &value);
  barrier();
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    out.push_back(*static_cast<const Tensor*>(group_->pointer_of(r)));
  }
  barrier();
  return out;
}

void Communicator::send(const Tensor& value, int destination, int tag) {
  CARAML_CHECK_MSG(destination >= 0 && destination < size(),
                   "send destination out of range");
  collective_counter("par/p2p_messages").add();
  collective_counter("par/p2p_bytes").add(tensor_bytes(value));
  std::lock_guard<std::mutex> lock(group_->mail_mutex_);
  group_->mailboxes_[{rank_, destination, tag}].queue.push_back(value);
  group_->mail_cv_.notify_all();
}

Tensor Communicator::recv(int source, int tag) {
  CARAML_CHECK_MSG(source >= 0 && source < size(), "recv source out of range");
  std::unique_lock<std::mutex> lock(group_->mail_mutex_);
  auto& mailbox = group_->mailboxes_[{source, rank_, tag}];
  group_->mail_cv_.wait(lock, [&] { return !mailbox.queue.empty(); });
  Tensor out = std::move(mailbox.queue.front());
  mailbox.queue.erase(mailbox.queue.begin());
  return out;
}

}  // namespace caraml::par
