#include "core/resnet.hpp"

#include <algorithm>
#include <cmath>

#include "sim/cluster.hpp"
#include "sim/memory.hpp"
#include "sim/trace_export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"

namespace caraml::core {

using sim::ClusterSim;
using sim::TaskGraph;
using sim::TaskId;
using topo::NodeSpec;
using topo::SystemRegistry;

namespace {

// Host input-pipeline rate per device (images/s): the calibrated base rate
// shrunk by the page-cache factor when the per-device host memory cannot
// hold the dataset (paper §IV-B: GH200-JRDC's 4x CPU memory => faster data
// loading than JEDI).
double host_rate_per_device(const NodeSpec& node) {
  const double cache_factor =
      std::min(1.0, node.cpu_mem_per_device() / models::kImagenetBytes);
  return node.host_pipeline_images_per_s * cache_factor;
}

constexpr double kGpuIterFixedOverheadS = 0.004;  // step sync, Horovod cycle

}  // namespace

ResnetRunResult run_resnet_gpu(const ResnetRunConfig& config) {
  TELEMETRY_SPAN("resnet/run_gpu");
  telemetry::Registry::global().counter("resnet/runs").add();
  const NodeSpec& node = SystemRegistry::instance().by_tag(config.system_tag);
  CARAML_CHECK_MSG(node.device.arch == topo::ArchClass::kGpuSimd,
                   "run_resnet_gpu targets GPU systems");
  CARAML_CHECK_MSG(config.devices >= 1, "need at least one device");

  int devices_per_node = std::min(config.devices, node.devices_per_node);
  int num_nodes = (config.devices + node.devices_per_node - 1) /
                  node.devices_per_node;
  if (num_nodes > 1) {
    CARAML_CHECK_MSG(config.devices % node.devices_per_node == 0,
                     "multi-node runs must use full nodes");
    devices_per_node = node.devices_per_node;
  }
  CARAML_CHECK_MSG(num_nodes <= node.max_nodes,
                   node.display_name + " has only " +
                       std::to_string(node.max_nodes) + " nodes");
  const int n = config.devices;
  CARAML_CHECK_MSG(config.global_batch % n == 0,
                   "global batch must divide by device count");
  const std::int64_t b_dev = config.global_batch / n;

  const models::ResNetModel model =
      models::ResNetModel::build(config.variant);

  ResnetRunResult result;
  result.system = node.display_name;
  result.global_batch = config.global_batch;
  result.devices = n;

  // ---- memory accounting ----------------------------------------------------
  const models::ResNetDeviceMemory memory = model.device_memory(b_dev);
  result.memory_per_device_bytes = memory.total();
  try {
    sim::MemoryTracker tracker(node.device.name,
                               node.device.mem_capacity_bytes);
    tracker.allocate("model+optimizer", memory.state);
    tracker.allocate("activations", memory.activations);
    tracker.allocate("workspace", memory.workspace);
  } catch (const OutOfMemory& oom) {
    telemetry::Registry::global().counter("resnet/oom").add();
    result.oom = true;
    result.oom_message = oom.what();
    return result;
  }

  // ---- one training iteration ------------------------------------------------
  // Conv utilization grows with the per-device batch (kernel occupancy).
  const double contention =
      1.0 + node.host_contention * (std::min(n, devices_per_node) - 1);
  const double mfu = node.device.max_mfu_conv / contention *
                     static_cast<double>(b_dev) /
                     (static_cast<double>(b_dev) + node.device.batch_half_mfu);
  const double flops = model.train_flops_per_image() * b_dev;
  const double t_compute =
      flops / (node.device.peak_fp16_flops * mfu) +
      static_cast<double>(model.layers.size()) * node.device.launch_overhead_s;

  CARAML_CHECK_MSG(config.compute_time_factor >= 1.0 &&
                       config.link_time_factor >= 1.0,
                   "derate time factors must be >= 1");
  CARAML_CHECK_MSG(config.power_cap_factor > 0.0 &&
                       config.power_cap_factor <= 1.0,
                   "power cap factor must be in (0, 1]");
  ClusterSim cluster(node, devices_per_node, num_nodes);
  for (int d = 0; d < n; ++d) {
    cluster.set_compute_derate(d, config.compute_time_factor);
    cluster.set_link_derate(d, config.link_time_factor);
  }
  for (const auto& [d, factor] : config.device_compute_derate) {
    CARAML_CHECK_MSG(d >= 0 && d < n,
                     "device_compute_derate index out of range");
    CARAML_CHECK_MSG(factor >= 1.0, "device derate factor must be >= 1");
    cluster.set_compute_derate(d, config.compute_time_factor * factor);
  }
  TaskGraph& graph = cluster.graph();

  const double mfu_uncontended =
      node.device.max_mfu_conv * static_cast<double>(b_dev) /
      (static_cast<double>(b_dev) + node.device.batch_half_mfu);
  const double power_util =
      config.power_cap_factor *
      (mfu + node.contention_power_frac * (mfu_uncontended - mfu)) *
      node.device.conv_power_boost;
  const double t_host =
      config.synthetic_data
          ? 0.0
          : static_cast<double>(b_dev) / host_rate_per_device(node);
  const double t_update =
      model.model_state_bytes() / node.device.mem_bandwidth +
      kGpuIterFixedOverheadS;

  // Simulate several iterations so the host input pipeline (which prefetches
  // the next batch while the device computes the current one) reaches steady
  // state; report the steady-state iteration time.
  constexpr int kIterations = 4;
  std::vector<TaskId> prev_update(static_cast<std::size_t>(n),
                                  sim::kInvalidTask);
  std::vector<TaskId> update_of_dev0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<TaskId> computed(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      TaskId input = sim::kInvalidTask;
      if (t_host > 0.0) {
        // Host tasks queue FIFO on the host resource: natural prefetching.
        input = graph.add_task(cluster.host(d), t_host, 0.0, "input");
      }
      const TaskId task = graph.add_task(
          cluster.compute(d), t_compute * cluster.compute_derate(d),
          power_util, "fwd+bwd");
      if (input != sim::kInvalidTask) graph.add_dependency(input, task);
      if (prev_update[static_cast<std::size_t>(d)] != sim::kInvalidTask) {
        graph.add_dependency(prev_update[static_cast<std::size_t>(d)], task);
      }
      computed[static_cast<std::size_t>(d)] = task;
    }

    // Horovod gradient all-reduce (fp16-compressed gradients); NCCL-style
    // hierarchical reduction across nodes.
    std::vector<TaskId> reduced = cluster.hierarchical_all_reduce(
        model.gradient_comm_bytes(), computed,
        "allreduce" + std::to_string(iter));

    for (int d = 0; d < n; ++d) {
      const TaskId update = graph.add_task(
          cluster.compute(d), t_update * cluster.compute_derate(d), 0.08,
          "sgd");
      graph.add_dependency(
          reduced[static_cast<std::size_t>(d %
                                           static_cast<int>(reduced.size()))],
          update);
      prev_update[static_cast<std::size_t>(d)] = update;
      if (d == 0) update_of_dev0.push_back(update);
    }
  }

  const double makespan = graph.run();
  const double first_done = graph.finish_time(update_of_dev0.front());
  const double last_done = graph.finish_time(update_of_dev0.back());
  const double iteration_time =
      kIterations > 1 ? (last_done - first_done) / (kIterations - 1)
                      : makespan;

  result.iteration_time_s = iteration_time;
  result.images_per_s_total =
      static_cast<double>(config.global_batch) / iteration_time;
  result.images_per_s_per_device = result.images_per_s_total / n;

  // Average power over the steady-state window.
  sim::PowerTrace trace(node.device, cluster.compute(0)->busy_intervals(),
                        makespan);
  if (auto& tracer = config.trace_sink ? *config.trace_sink
                                       : telemetry::Tracer::global();
      tracer.enabled()) {
    sim::append_chrome_events(graph, tracer);
    sim::append_power_counters(trace, "power/dev0_w", tracer);
    sim::append_queue_wait_counters(graph, tracer);
  }
  result.avg_power_per_device_w =
      last_done > first_done
          ? trace.energy_joules(first_done, last_done) /
                (last_done - first_done)
          : trace.average_power();
  // A lone active GCD of an MCM still pays the package's shared power
  // (paper §IV-B: using both GCDs of an MI250 is slightly more efficient).
  if (node.device.mcm_shared_watts > 0.0 && n % 2 == 1) {
    result.avg_power_per_device_w += node.device.mcm_shared_watts;
  }
  // Epoch energy: all devices together process the full ImageNet epoch.
  const double epoch_seconds =
      static_cast<double>(models::kImagenetTrainImages) /
      result.images_per_s_total;
  result.energy_per_epoch_wh =
      result.avg_power_per_device_w * n * epoch_seconds / 3600.0;
  result.images_per_wh =
      static_cast<double>(models::kImagenetTrainImages) /
      result.energy_per_epoch_wh;
  result.device0_trace = std::move(trace);
  return result;
}

// ---------------------------------------------------------------------------
// Graphcore path (Table III, Fig. 4g).
// ---------------------------------------------------------------------------

namespace {
// Calibrated against Table III (EXPERIMENTS.md): ResNet50 fits in the GC200's
// 900 MB SRAM at micro-batch 16, so throughput is flat in the global batch.
constexpr std::int64_t kIpuMicroImages = 16;
constexpr double kIpuSyncOverheadS = 0.000301;  // per-iteration host sync
constexpr double kIpuAllreduceStepLatencyS = 0.001;  // BSP sync per ring step
constexpr double kIpuBusyWatts = 167.3;
}  // namespace

ResnetRunResult run_resnet_ipu(std::int64_t global_batch, int ipus) {
  TELEMETRY_SPAN("resnet/run_ipu");
  telemetry::Registry::global().counter("resnet/runs").add();
  const NodeSpec& node = SystemRegistry::instance().by_tag("GC200");
  CARAML_CHECK_MSG(ipus >= 1 && ipus <= node.devices_per_node,
                   "IPU count out of range for the M2000 POD4");
  CARAML_CHECK_MSG(global_batch >= 1 && global_batch % ipus == 0,
                   "global batch must divide by IPU count");

  const models::ResNetModel model =
      models::ResNetModel::build(models::ResNetVariant::kResNet50);

  const std::int64_t b_dev = global_batch / ipus;
  const std::int64_t micro = std::min<std::int64_t>(kIpuMicroImages, b_dev);
  const std::int64_t n_micro = (b_dev + micro - 1) / micro;

  // Per-micro compute at the calibrated SRAM-resident rate.
  const double images_per_s_peak =
      node.device.peak_fp16_flops * node.device.max_mfu_conv /
      model.train_flops_per_image();
  const double t_micro = static_cast<double>(micro) / images_per_s_peak;

  double iteration = static_cast<double>(n_micro) * t_micro + kIpuSyncOverheadS;
  if (ipus > 1) {
    // Ring all-reduce over IPU-Links with BSP sync per step.
    const double chunk =
        model.gradient_comm_bytes() / static_cast<double>(ipus);
    const double step =
        kIpuAllreduceStepLatencyS + chunk / node.peer_link.bandwidth;
    iteration += 2.0 * (ipus - 1) * step;
  }

  ResnetRunResult result;
  result.system = node.display_name;
  result.global_batch = global_batch;
  result.devices = ipus;
  result.iteration_time_s = iteration;
  result.images_per_s_total = static_cast<double>(global_batch) / iteration;
  result.images_per_s_per_device = result.images_per_s_total / ipus;
  result.avg_power_per_device_w = kIpuBusyWatts;
  const double epoch_seconds =
      static_cast<double>(models::kImagenetTrainImages) /
      result.images_per_s_total;
  result.energy_per_epoch_wh =
      kIpuBusyWatts * ipus * epoch_seconds / 3600.0;
  result.images_per_wh = static_cast<double>(models::kImagenetTrainImages) /
                         result.energy_per_epoch_wh;
  return result;
}

ResnetRunResult run_resnet(const ResnetRunConfig& config) {
  if (config.system_tag == "GC200") {
    return run_resnet_ipu(config.global_batch, config.devices);
  }
  return run_resnet_gpu(config);
}

}  // namespace caraml::core
