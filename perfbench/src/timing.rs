//! A transparent timing wrapper around the public [`Scheduler`] trait.
//!
//! [`Timed`] forwards every hook to the wrapped policy unchanged and
//! adds the host time of each call to a [`HookStats`]. It is used only
//! in the traced passes; the benchmark checks on every run that a
//! wrapped run reproduces the unwrapped run's report and trace checksum
//! exactly.

use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use memsched_platform::{PlatformSpec, Probe, RuntimeView, Scheduler};
use std::time::Instant;

/// Host time and call counts of one scheduler's hooks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookStats {
    /// `prepare` / `prepare_stream` (partitioning, packing, allocation).
    pub prepare_ns: u64,
    /// `pop_task`.
    pub pop_ns: u64,
    /// `pop_task` calls.
    pub pop_calls: u64,
    /// `pop_task` calls that returned a task.
    pub pop_some: u64,
    /// `choose_victim`.
    pub victim_ns: u64,
    /// `choose_victim` calls.
    pub victim_calls: u64,
    /// `choose_victim` calls answered `None` (the engine falls back to
    /// its LRU).
    pub victim_none: u64,
    /// Every notification hook: arrivals, load issue/completion,
    /// eviction, task completion and the fault hooks.
    pub notify_ns: u64,
    /// Notification calls.
    pub notify_calls: u64,
}

impl HookStats {
    /// Host time spent in all hooks.
    pub fn total_ns(&self) -> u64 {
        self.prepare_ns + self.pop_ns + self.victim_ns + self.notify_ns
    }

    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &HookStats) {
        self.prepare_ns += other.prepare_ns;
        self.pop_ns += other.pop_ns;
        self.pop_calls += other.pop_calls;
        self.pop_some += other.pop_some;
        self.victim_ns += other.victim_ns;
        self.victim_calls += other.victim_calls;
        self.victim_none += other.victim_none;
        self.notify_ns += other.notify_ns;
        self.notify_calls += other.notify_calls;
    }
}

/// Wraps a scheduler and times every hook. Decisions are the inner
/// scheduler's, untouched.
pub struct Timed {
    inner: Box<dyn Scheduler + Send>,
    /// Hook timings accumulated so far.
    pub stats: HookStats,
}

impl Timed {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Scheduler + Send>) -> Self {
        Self {
            inner,
            stats: HookStats::default(),
        }
    }

    #[inline]
    fn notify<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.stats.notify_ns += t.elapsed().as_nanos() as u64;
        self.stats.notify_calls += 1;
        r
    }
}

impl Scheduler for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        let t = Instant::now();
        self.inner.prepare(ts, spec);
        self.stats.prepare_ns += t.elapsed().as_nanos() as u64;
    }

    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        let t = Instant::now();
        self.inner.prepare_stream(ts, spec);
        self.stats.prepare_ns += t.elapsed().as_nanos() as u64;
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        self.notify(|s| s.on_task_arrival(task, view))
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let t = Instant::now();
        let r = self.inner.pop_task(gpu, view);
        self.stats.pop_ns += t.elapsed().as_nanos() as u64;
        self.stats.pop_calls += 1;
        self.stats.pop_some += r.is_some() as u64;
        r
    }

    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        let t = Instant::now();
        let r = self.inner.choose_victim(gpu, view);
        self.stats.victim_ns += t.elapsed().as_nanos() as u64;
        self.stats.victim_calls += 1;
        self.stats.victim_none += r.is_none() as u64;
        r
    }

    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        self.notify(|s| s.on_task_complete(gpu, task, view))
    }

    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.notify(|s| s.on_load_issued(gpu, data, view))
    }

    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.notify(|s| s.on_data_loaded(gpu, data, view))
    }

    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.notify(|s| s.on_data_evicted(gpu, data, view))
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        self.notify(|s| s.on_gpu_failed(gpu, lost, view))
    }

    fn on_transfer_retry(
        &mut self,
        gpu: GpuId,
        data: DataId,
        attempt: u32,
        view: &RuntimeView<'_>,
    ) {
        self.notify(|s| s.on_transfer_retry(gpu, data, attempt, view))
    }

    fn on_capacity_changed(&mut self, gpu: GpuId, capacity: u64, view: &RuntimeView<'_>) {
        self.notify(|s| s.on_capacity_changed(gpu, capacity, view))
    }

    fn decomposes_per_group(&self) -> bool {
        self.inner.decomposes_per_group()
    }

    fn group_task_counts(&self, groups: &[usize], num_groups: usize) -> Option<Vec<usize>> {
        self.inner.group_task_counts(groups, num_groups)
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe)
    }
}
