// Command perfbench is the repository benchmark. It drives the simulator
// through the public APIs of internal/fleet, internal/fleetd and
// internal/experiments, times it from outside the program, and checks that
// every run produced the same, correct output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (a nested module, so `go test ./...` and
// flashvet at the repository root never see its wall-clock reads) into
// .bench_build/ and runs it from the repository root. The last line of
// standard output is the result object of BENCHMARK.json's contract; the
// line before it is a report: the host record (nproc, GOMAXPROCS, Go
// version, commit, a digest of the Go sources), the seed, every metric's
// median and quartiles over the run's samples, the output digest, the
// checks that ran, and the metrics that are reported but not gated.
//
// # Workloads
//
// All four use the fixed inputs below, derived from --seed, and at most two
// simulation workers. The process runs at GOGC=400 (see gcPercent).
//
//   - fleet-wearout: fleet.Run over 16 phones for 30 days, stratified
//     exactly over the default profile mix and a 25% attack / 5% buggy /
//     70% benign class mix, one fleet.Run per (class, profile) cell. Attack
//     phones write flat out until they brick, so this is the NAND/FTL/extfs
//     hot path, with no reboot, codec or host I/O.
//   - campaign-mem: a fleetd campaign of 32 benign phones for 30 days in
//     memory. Benign phones write little, so the nightly reboot (chip state
//     export and import, remount) dominates.
//   - campaign-ckpt: the same campaign checkpointed every day into a fresh
//     data directory, so every day encodes, fsyncs, renames and decodes a
//     cell. Against campaign-mem it isolates checkpoint cost.
//   - exhibit-fig4: experiments.Figure4 at scale 2048 to Type B wear level
//     3: Moto E on ext4, then on F2FS. The only workload that runs f2fs,
//     and the only one with a paper reference. It takes no seed: its inputs
//     are the paper's.
//
// fleet-wearout shares its cells between two workers, attack cells first
// (see share); exhibit-fig4 runs two identical copies side by side,
// one per core (see benchWorkers), and requires them to agree; the
// campaigns use fleetd's own pool of two workers.
//
// # End-to-end metrics (--trace 0)
//
//   - device_days_per_s: simulated device-days per host second, the median
//     over the run's iterations. Devices × horizon days for the fleet
//     workloads; the phones' simulated hours / 24 for exhibit-fig4.
//   - setup_s: the median of 101 set-ups: spec validation, Manager
//     construction and data-directory adoption, and building every device
//     the iteration will simulate (device.New), so that work moved from
//     simulation into set-up or device construction shows.
//   - alloc_mib: Go heap bytes allocated by one iteration (TotalAlloc delta).
//
// The report also carries, ungated, sim_gib_per_s (full-scale host GiB
// simulated per second; on the campaigns it follows the sampled write
// rates from seed to seed), ckpt_mib_written (campaign-ckpt),
// paper_err_pct (exhibit-fig4: |F2FS/ext4 GiB-per-increment ratio − 0.5| /
// 0.5, against the paper's "about half"; the fleet workloads have no
// hardware reference, so they give no error figure) and failed_frac.
//
// # Output checks (every run)
//
// Every iteration simulates every requested device with no failure; the
// side-by-side Figure 4 copies agree; every iteration of a run produces the
// same output digest; a campaign simulates
// the per-profile population the benchmark sampled, and campaign-mem and
// campaign-ckpt produce the same final Aggregate JSON and day-series CSV
// (DESIGN §11's schedule invariance), checked by running the other mode
// once per run. The traced run also requires its traced iteration to
// reproduce the untraced output: for fleet-wearout, fleet.Run's Total
// (Devices, Bricked, HostMiB, BrickDayMilli) in every cell.
//
// # Per-layer metrics (--trace 1)
//
// A traced run makes one untraced iteration (the base for the overheads
// and the runtime.* figures), one traced iteration and one CPU-profiled
// untraced iteration. For fleet-wearout and exhibit-fig4 the traced
// iteration re-drives the same devices through public calls (device.New,
// extfs/f2fs Mkfs and Mount, workload.FileSet, core.Runner) with a
// blockdev.Device shim between the file system and the device and spans
// around each call; for the campaigns it is the same campaign with a
// hostio.FS shim in fleetd.Options.FS, plus fleetd's own phase totals. The
// campaigns' device stacks are out of the shims' reach, so their nand.*,
// ftl.*, device.*, extfs.* and workload.* counts read 0 and the report
// lists them as unobserved. cpu.* shares come from the profiled iteration
// (see cpuBuckets).
//
// Which end-to-end metric each layer metric should move, and where:
//
//   - nand.*, cpu.nand: device_days_per_s on fleet-wearout and exhibit-fig4;
//     barely on campaign-mem.
//   - ftl.*, device.*, extfs.mkfs_s/mount_s/self_s/*_blocks, cpu.ftl,
//     cpu.device, cpu.extfs, workload.*, cpu.workload: fleet-wearout (the
//     set-up allocations also in its alloc_mib).
//   - f2fs.*, cpu.f2fs, cpu.android, cpu.experiments: exhibit-fig4 only.
//   - cpu.nand.export_state, cpu.nand.import_state, cpu.extfs.mount
//     (stack-inclusive shares of the nightly reboot): device_days_per_s on
//     campaign-mem and campaign-ckpt; about 0 on fleet-wearout.
//   - fleetd.simulate_s, fleetd.journal_s, fleetd.aggregate_s: the
//     campaigns; fleetd.checkpoint_encode_s and checkpoint_fsync_s only
//     campaign-ckpt, 0 on campaign-mem.
//   - hostio.*, cpu.syscall: campaign-ckpt.
//   - cpu.fleet, cpu.fleetd, cpu.core, cpu.hostio, cpu.other,
//     cpu.runtime_gc, cpu.runtime_mem, cpu.runtime_other,
//     runtime.gc_cpu_frac, runtime.num_gc: every workload, through
//     device_days_per_s and alloc_mib; the campaigns' allocation churn makes
//     the runtime shares largest there.
//   - trace.overhead_pct (traced against untraced device_days_per_s) and
//     shim.blockdev_overhead_pct / shim.hostio_overhead_pct (each shim's
//     calls times its measured cost per call, over the untraced
//     iteration's CPU time)
//     say how far the traced numbers sit from the end-to-end ones. A shim
//     costing 12.5% or more, half the device_days_per_s bound, fails the
//     run.
package main
