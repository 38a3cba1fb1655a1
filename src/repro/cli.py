"""Command-line interface for the repro library.

Four subcommands cover the workflows a user of the paper's system runs:

* ``repro figures [NAMES...]`` — regenerate the paper's evaluation
  figures as text tables (all of them by default);
* ``repro encode FILE`` — encode a file into framed coded blocks;
* ``repro decode FILE`` — decode a framed block stream back to content;
* ``repro capacity`` — plan streaming-server capacity for a device,
  encoding scheme and media bitrate;
* ``repro stats`` — record a traced serve session (or load a saved obs
  snapshot) and render the per-round pipeline breakdown, the metrics
  summary, Prometheus text, or the raw snapshot JSON;
* ``repro cluster`` — demo the sharded serving cluster: consistent-hash
  placement, a seeded multi-session workload, optional mid-flight
  worker kill with deterministic rebalance, and the modelled scale-out
  speedup; ``--parallel`` runs the same workload on real process
  workers with shared-memory block buffers, and ``--chaos`` arms a
  seeded process-level fault schedule (crash, hang, slow replies) that
  the supervision layer must detect and heal mid-workload;
* ``repro loadtest`` — drive the cluster at 10^5-10^6 modelled sessions
  with seeded Poisson/diurnal arrivals, flash crowds, Zipf popularity
  and churn, while the metrics-driven autoscaler grows and shrinks the
  hash ring and a sampled cohort of real sessions proves the data path
  byte-exact through every scale event.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bench.figures import ALL_FIGURES
from repro.bench.report import render_series_table
from repro.errors import ReproError
from repro.gpu.spec import DEVICE_PRESETS, device_by_name
from repro.kernels.cost_model import EncodeScheme, encode_bandwidth
from repro.rlnc.block import CodingParams
from repro.rlnc.encoder import Encoder
from repro.rlnc.generation import MultiSegmentDecoder, split_into_segments
from repro.rlnc.wire import decode_stream, encode_stream
from repro.streaming.capacity import plan_capacity
from repro.streaming.nic import NicModel
from repro.streaming.session import MediaProfile


def _add_geometry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-n", "--num-blocks", type=int, default=128,
        help="source blocks per segment (default 128)",
    )
    parser.add_argument(
        "-k", "--block-size", type=int, default=4096,
        help="bytes per block (default 4096)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU network coding (ICDCS'09 reproduction) toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figures = commands.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    figures.add_argument(
        "names", nargs="*",
        help=f"figure ids (default: all of {', '.join(sorted(ALL_FIGURES))})",
    )

    encode = commands.add_parser(
        "encode", help="encode a file into framed coded blocks"
    )
    encode.add_argument("input", help="file to encode")
    encode.add_argument(
        "-o", "--output", required=True, help="frame-stream output path"
    )
    _add_geometry_arguments(encode)
    encode.add_argument(
        "--redundancy", type=float, default=1.1,
        help="coded blocks emitted per source block (default 1.1)",
    )
    encode.add_argument("--seed", type=int, default=None)

    decode = commands.add_parser(
        "decode", help="decode a framed block stream back to content"
    )
    decode.add_argument("input", help="frame-stream file")
    decode.add_argument("-o", "--output", required=True)
    decode.add_argument(
        "--length", type=int, required=True,
        help="original content length in bytes",
    )

    capacity = commands.add_parser(
        "capacity", help="plan streaming-server capacity"
    )
    capacity.add_argument(
        "--device", choices=sorted(DEVICE_PRESETS), default="gtx280"
    )
    capacity.add_argument(
        "--scheme",
        choices=[scheme.value for scheme in EncodeScheme],
        default=EncodeScheme.TABLE_5.value,
    )
    _add_geometry_arguments(capacity)
    capacity.add_argument(
        "--stream-kbps", type=float, default=768.0,
        help="media bitrate in kilobits/second (default 768)",
    )
    capacity.add_argument(
        "--nics", type=int, default=2, help="bonded GigE interfaces"
    )

    kernels = commands.add_parser(
        "kernels", help="show the kernel cost-breakdown table"
    )
    kernels.add_argument(
        "--device", choices=sorted(DEVICE_PRESETS), default="gtx280"
    )

    p2p = commands.add_parser(
        "p2p", help="simulate P2P distribution: coding vs routing"
    )
    p2p.add_argument(
        "--topology", choices=["butterfly", "overlay"], default="butterfly"
    )
    p2p.add_argument("--peers", type=int, default=12, help="overlay peers")
    p2p.add_argument("-n", "--num-blocks", type=int, default=16)
    p2p.add_argument("--loss", type=float, default=0.0)
    p2p.add_argument("--seed", type=int, default=0)

    multicast = commands.add_parser(
        "multicast",
        help="demo pipelined multicast: double-buffered rounds vs "
        "lock-step (overlap report, byte-exactness) plus a recoding "
        "relay tree under seeded loss",
    )
    multicast.add_argument(
        "--peers", type=int, default=4, help="direct sessions (default 4)"
    )
    multicast.add_argument(
        "-n", "--num-blocks", type=int, default=16,
        help="source blocks per segment (default 16)",
    )
    multicast.add_argument(
        "-k", "--block-size", type=int, default=1024,
        help="bytes per block (default 1024)",
    )
    multicast.add_argument(
        "--quota", type=int, default=2,
        help="per-peer blocks per round (default 2; stretches the run "
        "so the pipeline has rounds to overlap)",
    )
    multicast.add_argument(
        "--cluster", action="store_true",
        help="serve from a sharded cluster instead of a single server",
    )
    multicast.add_argument(
        "--workers", type=int, default=2, help="cluster size (default 2)"
    )
    multicast.add_argument(
        "--parallel", action="store_true",
        help="multiprocess cluster workers (implies --cluster); encode "
        "genuinely overlaps the caller's intake",
    )
    multicast.add_argument(
        "--relays", type=int, default=2,
        help="recoding relays in the tree demo (default 2)",
    )
    multicast.add_argument(
        "--leaves", type=int, default=2,
        help="leaf sessions per relay (default 2)",
    )
    multicast.add_argument(
        "--loss", type=float, default=0.2,
        help="drop rate injected on one uplink and one leaf hop "
        "(default 0.2)",
    )
    multicast.add_argument("--seed", type=int, default=0)

    stats = commands.add_parser(
        "stats",
        help="record a traced serve session and show the per-round breakdown",
    )
    stats.add_argument(
        "snapshot", nargs="?", default=None,
        help="render a previously saved obs snapshot JSON instead of "
        "recording a fresh session",
    )
    stats.add_argument(
        "--format", choices=["table", "json", "prometheus"], default="table",
        dest="output_format",
    )
    stats.add_argument(
        "-o", "--output", default=None,
        help="also save the combined metrics+spans snapshot JSON here",
    )
    _add_geometry_arguments(stats)
    stats.add_argument(
        "--peers", type=int, default=8, help="concurrent client sessions"
    )
    stats.add_argument(
        "--segments", type=int, default=2, help="segments served end to end"
    )
    stats.add_argument("--seed", type=int, default=0)

    cluster = commands.add_parser(
        "cluster",
        help="demo the sharded serving cluster (placement, failover, "
        "modelled scale-out)",
    )
    cluster.add_argument(
        "--workers", type=int, default=4, help="cluster size (default 4)"
    )
    cluster.add_argument(
        "--peers", type=int, default=16, help="concurrent client sessions"
    )
    cluster.add_argument(
        "--segments", type=int, default=8, help="segments published"
    )
    cluster.add_argument(
        "-n", "--num-blocks", type=int, default=32,
        help="source blocks per segment (default 32)",
    )
    cluster.add_argument(
        "-k", "--block-size", type=int, default=1024,
        help="bytes per block (default 1024)",
    )
    cluster.add_argument(
        "--quota", type=int, default=4,
        help="per-peer blocks per round (stretches the workload so a "
        "mid-flight kill has a window; default 4)",
    )
    cluster.add_argument(
        "--kill-at", type=float, default=None,
        help="kill a seed-drawn victim worker at this progress fraction "
        "(e.g. 0.2); omitted = no failure injection",
    )
    cluster.add_argument(
        "--parallel", action="store_true",
        help="run each worker as its own OS process with shared-memory "
        "block buffers (byte-identical output; a --kill-at victim is a "
        "real process)",
    )
    cluster.add_argument(
        "--chaos", action="store_true",
        help="seeded process-level chaos soak (implies --parallel): "
        "seed-drawn victims crash, hang and slow down mid-workload and "
        "the supervision layer must detect, restart and heal them — "
        "plus a raw SIGKILL drop when the cluster has >= 5 workers",
    )
    cluster.add_argument("--seed", type=int, default=0)

    loadtest = commands.add_parser(
        "loadtest",
        help="drive the cluster at 10^5-10^6 modelled sessions with "
        "seeded traffic, autoscaling and a byte-exactness cohort",
    )
    loadtest.add_argument(
        "--sessions", type=int, default=100_000,
        help="target steady-state modelled sessions (default 100000)",
    )
    loadtest.add_argument(
        "--rounds", type=int, default=200,
        help="serve rounds to run (default 200)",
    )
    loadtest.add_argument(
        "--workers", type=int, default=2,
        help="initial cluster size (default 2)",
    )
    loadtest.add_argument(
        "--max-workers", type=int, default=16,
        help="autoscaler ceiling (default 16)",
    )
    loadtest.add_argument(
        "--min-workers", type=int, default=1,
        help="autoscaler floor (default 1)",
    )
    loadtest.add_argument(
        "--segments", type=int, default=64,
        help="catalog size the Zipf popularity draws from (default 64)",
    )
    loadtest.add_argument(
        "--sample-peers", type=int, default=8,
        help="real byte-exactness cohort size (default 8)",
    )
    loadtest.add_argument(
        "--arrivals", choices=["poisson", "diurnal"], default="poisson",
        help="arrival process (diurnal ramps trough->crest over the run)",
    )
    loadtest.add_argument(
        "--dwell", type=float, default=16.0,
        help="mean session dwell in rounds (default 16)",
    )
    loadtest.add_argument(
        "--zipf", type=float, default=1.0,
        help="segment-popularity Zipf exponent (default 1.0)",
    )
    loadtest.add_argument(
        "--flash-at", type=int, default=None,
        help="start round of a flash crowd (omitted = none)",
    )
    loadtest.add_argument(
        "--flash-rounds", type=int, default=20,
        help="flash crowd duration in rounds (default 20)",
    )
    loadtest.add_argument(
        "--flash-mult", type=float, default=3.0,
        help="flash crowd arrival multiplier (default 3.0)",
    )
    loadtest.add_argument(
        "--churn", type=float, default=0.01,
        help="per-round modelled-session departure probability "
        "(default 0.01)",
    )
    loadtest.add_argument(
        "--flap", type=float, default=0.01,
        help="per-round cohort connection-flap probability (default 0.01)",
    )
    loadtest.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_figures(args: argparse.Namespace) -> int:
    names = args.names or sorted(ALL_FIGURES)
    unknown = [name for name in names if name not in ALL_FIGURES]
    if unknown:
        print(
            f"error: unknown figure(s) {unknown}; choose from "
            f"{sorted(ALL_FIGURES)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        print(render_series_table(ALL_FIGURES[name]()))
        print()
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    params = CodingParams(args.num_blocks, args.block_size)
    with open(args.input, "rb") as handle:
        content = handle.read()
    rng = np.random.default_rng(args.seed)
    segments = split_into_segments(content, params)
    blocks = []
    per_segment = max(1, int(round(args.redundancy * params.num_blocks)))
    for segment in segments:
        blocks.extend(Encoder(segment, rng).encode_blocks(per_segment))
    stream = encode_stream(blocks)
    with open(args.output, "wb") as handle:
        handle.write(stream)
    print(
        f"encoded {len(content)} bytes as {len(blocks)} coded blocks "
        f"({len(segments)} segments, {len(stream)} wire bytes)"
    )
    print(f"original length (pass to decode --length): {len(content)}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        stream = handle.read()
    blocks = decode_stream(stream)
    if not blocks:
        print("no frames in input", file=sys.stderr)
        return 1
    params = CodingParams(blocks[0].num_blocks, blocks[0].block_size)
    receiver = MultiSegmentDecoder(params)
    for block in blocks:
        receiver.consume(block)
    expected = max(block.segment_id for block in blocks) + 1
    content = receiver.recover_bytes(expected, args.length)
    with open(args.output, "wb") as handle:
        handle.write(content)
    print(f"decoded {len(content)} bytes from {len(blocks)} coded blocks")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    spec = device_by_name(args.device)
    scheme = EncodeScheme(args.scheme)
    profile = MediaProfile(
        params=CodingParams(args.num_blocks, args.block_size),
        stream_bps=args.stream_kbps * 1000,
    )
    rate = encode_bandwidth(
        spec, scheme, num_blocks=args.num_blocks, block_size=args.block_size
    )
    nic = NicModel(count=args.nics)
    plan = plan_capacity(spec, rate, profile, nic)
    print(f"device:            {spec.name}")
    print(f"scheme:            {scheme.value}")
    print(f"coding bandwidth:  {rate / 1e6:.1f} MB/s")
    print(f"segment duration:  {profile.segment_duration_seconds:.2f} s")
    print(f"coding-limited:    {plan.coding_peers} peers")
    print(f"NIC-limited:       {plan.nic_peers} peers ({args.nics} GigE)")
    print(f"serveable peers:   {plan.peers} (bottleneck: {plan.bottleneck})")
    print(f"live blocks/seg:   {plan.blocks_per_segment_live}")
    print(f"segments on GPU:   {plan.segments_in_memory}")
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.kernels.breakdown import render_breakdown_table, workload_roofline
    from repro.kernels.cost_model import EncodeScheme as Scheme

    spec = device_by_name(args.device)
    print(render_breakdown_table(spec))
    roofline = workload_roofline(
        spec, Scheme.TABLE_5, num_blocks=128, block_size=4096, coded_rows=1024
    )
    print(
        f"\nTB-5 at (n=128, k=4096): {roofline.bound}-bound "
        f"(memory/compute = {roofline.balance:.2f})"
    )
    return 0


def _cmd_p2p(args: argparse.Namespace) -> int:
    from repro.p2p import (
        Strategy,
        butterfly,
        random_overlay,
        strategy_showdown,
    )

    rng = np.random.default_rng(args.seed)
    if args.topology == "butterfly":
        graph, source, sinks = butterfly(), "s", ["t1", "t2"]
    else:
        graph = random_overlay(args.peers, 3, rng)
        source, sinks = "source", list(range(args.peers))
    params = CodingParams(args.num_blocks, 64)
    results = strategy_showdown(
        graph, params, source=source, sinks=sinks, seed=args.seed,
        edge_loss=args.loss,
    )
    print(f"topology: {args.topology}, n={args.num_blocks}")
    for strategy, result in results.items():
        if result.all_sinks_complete:
            finish = max(result.completion_round.values())
            outcome = f"all sinks complete at round {finish}"
        else:
            outcome = f"incomplete after {result.rounds} rounds"
        print(
            f"  {strategy.value:>10}: {outcome}, "
            f"innovative ratio {result.innovative_ratio:.0%}"
        )
    return 0


def _cmd_multicast(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan
    from repro.gpu.spec import GTX280
    from repro.multicast import MulticastTree, compare_modes
    from repro.rlnc.block import Segment
    from repro.streaming.server import StreamingServer

    params = CodingParams(args.num_blocks, args.block_size)
    profile = MediaProfile(params=params)
    segment = Segment.random(params, np.random.default_rng(args.seed + 1))
    use_cluster = args.cluster or args.parallel

    if use_cluster:
        from repro.cluster.cluster import ServingCluster

        def make_endpoint():
            endpoint = ServingCluster(
                GTX280,
                profile,
                num_workers=args.workers,
                seed=args.seed,
                per_peer_round_quota=args.quota,
                parallel=args.parallel,
            )
            endpoint.publish(segment)
            return endpoint

        substrate = (
            f"{args.workers}-worker "
            f"{'multiprocess' if args.parallel else 'in-process'} cluster"
        )
    else:

        def make_endpoint():
            endpoint = StreamingServer(
                GTX280,
                profile,
                rng=np.random.default_rng(args.seed),
                per_peer_round_quota=args.quota,
            )
            endpoint.publish(segment)
            return endpoint

        substrate = "single server"

    peers = list(range(args.peers))
    lockstep, pipelined = compare_modes(
        make_endpoint, peers, segment, quota=args.quota
    )
    exact = pipelined.byte_exact(lockstep)
    print(
        f"pipelined multicast over a {substrate}: {args.peers} peers, "
        f"n={args.num_blocks}, k={args.block_size}, quota={args.quota}"
    )
    print(pipelined.overlap.render())
    print(f"byte-exact vs lock-step: {'yes' if exact else 'NO'}")

    root = StreamingServer(
        GTX280, profile, rng=np.random.default_rng(args.seed)
    )
    root.publish(segment)
    tree = MulticastTree(
        root,
        profile,
        relays=args.relays,
        leaves_per_relay=args.leaves,
        seed=args.seed,
        uplink_fault_plans={
            0: FaultPlan(seed=args.seed + 2, drop_rate=args.loss)
        },
        leaf_fault_plans={
            (0, 0): FaultPlan(seed=args.seed + 3, drop_rate=args.loss)
        },
    )
    report = tree.distribute(segment)
    print(
        f"relay tree: {report.relays} recoding relays x {args.leaves} "
        f"leaves with {args.loss:.0%} loss on two hops — "
        f"{report.rounds} rounds, {report.blocks_recoded} recoded "
        f"blocks, payload {'ok' if report.payload_ok else 'WRONG'}"
    )
    return 0 if exact and report.payload_ok else 1


def _record_serve_session(args: argparse.Namespace):
    """Drive a small traced serve session covering every pipeline stage.

    One server, ``--peers`` NACK-capable client sessions, ``--segments``
    segments fetched to completion through coalesced serving rounds,
    plus one relay hop (recode + two-stage decode) so the recode stage
    shows up in the breakdown exactly as in the paper's Table 2.

    Returns:
        ``(server, sessions)``, whose stats are the session's ledgers.
    """
    from repro.gpu.spec import GTX280
    from repro.obs import tracing
    from repro.rlnc.block import Segment
    from repro.rlnc.decoder import TwoStageDecoder
    from repro.rlnc.recoder import Recoder
    from repro.streaming.client import ClientSession, drive_sessions
    from repro.streaming.server import StreamingServer

    params = CodingParams(args.num_blocks, args.block_size)
    profile = MediaProfile(params=params, stream_bps=768_000.0)
    rng = np.random.default_rng(args.seed)
    server = StreamingServer(GTX280, profile, rng=rng)
    sessions = [
        ClientSession(server, peer_id) for peer_id in range(args.peers)
    ]
    with tracing():
        for segment_id in range(args.segments):
            segment = Segment.random(params, rng, segment_id=segment_id)
            server.publish_segment(segment)
            for session in sessions:
                session.begin_segment(segment_id)
            drive_sessions(server, sessions)
            for session in sessions:
                session.finish_segment()
        # Relay hop: an intermediate node recodes what it received and a
        # downstream two-stage decoder recovers from the recoded blocks.
        last = args.segments - 1
        blocks = server.serve(
            sessions[0].peer_id, last, params.num_blocks
        )
        relay = Recoder(params, segment_id=last)
        relay.add_batch(
            np.stack([block.coefficients for block in blocks]),
            np.stack([block.payload for block in blocks]),
        )
        mixed = relay.recode_matrix(params.num_blocks + 4, rng)
        downstream = TwoStageDecoder(params, segment_id=last, slack=8)
        downstream.add_batch(mixed)
        downstream.decode()
    return server, sessions


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        load_snapshot,
        render_breakdown_table,
        render_metrics_summary,
        render_prometheus,
        round_breakdown,
        snapshot_document,
    )

    if args.snapshot is not None:
        metrics, records = load_snapshot(args.snapshot)
        document = None
        title = f"per-round breakdown ({args.snapshot})"
    else:
        if args.peers < 1 or args.segments < 1:
            print("error: need at least 1 peer and 1 segment", file=sys.stderr)
            return 2
        server, sessions = _record_serve_session(args)
        # The registry keeps no counters (only span timings); the
        # serving counters come from the server's and sessions' ledgers.
        document = snapshot_document(
            server.stats_snapshot(),
            *(session.stats.series("client") for session in sessions),
        )
        metrics, records = document["metrics"], None
        title = "per-round breakdown (recorded serve session)"

    if args.output is not None:
        saved = document or {
            "metrics": metrics,
            "spans": json.loads(open(args.snapshot).read()).get("spans", []),
        }
        with open(args.output, "w") as handle:
            json.dump(saved, handle, indent=2, sort_keys=True)
        print(f"snapshot saved to {args.output}", file=sys.stderr)

    if args.output_format == "json":
        if document is None:
            document = json.loads(open(args.snapshot).read())
        print(json.dumps(document, indent=2, sort_keys=True))
    elif args.output_format == "prometheus":
        print(render_prometheus(metrics), end="")
    else:
        breakdown = round_breakdown(records)
        print(render_breakdown_table(breakdown, title=title))
        print()
        print(render_metrics_summary(metrics))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import SupervisorConfig, run_cluster_workload
    from repro.faults import ChaosPlan, WorkerKillPlan

    params = CodingParams(args.num_blocks, args.block_size)
    kill_plan = None
    if args.kill_at is not None:
        kill_plan = WorkerKillPlan(
            seed=args.seed,
            num_workers=args.workers,
            kill_at_progress=args.kill_at,
        )
    chaos_plan = None
    supervision = None
    if args.chaos:
        args.parallel = True
        chaos_plan = ChaosPlan(
            seed=args.seed,
            num_workers=args.workers,
            crash_at_round=2,
            hang_at_round=3,
            hang_seconds=2.0,
            slow_from_round=2,
            slow_reply_seconds=0.4,
            drop_at_progress=0.5 if args.workers >= 5 else None,
        )
        supervision = SupervisorConfig(
            round_timeout=1.0,
            slow_round_seconds=0.25,
            max_slow_strikes=2,
            restart_budget=3,
            backoff_base=0.05,
        )
    report = run_cluster_workload(
        num_workers=args.workers,
        num_peers=args.peers,
        num_segments=args.segments,
        params=params,
        seed=args.seed,
        kill_plan=kill_plan,
        chaos_plan=chaos_plan,
        supervision=supervision,
        per_peer_round_quota=args.quota,
        parallel=args.parallel,
    )
    mode = "process workers" if args.parallel else "in-process workers"
    print(
        f"sharded serving cluster: {args.workers} {mode}, "
        f"{args.segments} segments, {args.peers} peers, seed {args.seed}"
    )
    by_worker: dict[int, list[int]] = {}
    for segment_id, worker_id in sorted(report.placement_before.items()):
        by_worker.setdefault(worker_id, []).append(segment_id)
    print("initial placement:")
    for worker_id in sorted(by_worker):
        print(f"  worker {worker_id}: segments {by_worker[worker_id]}")
    if report.killed_worker is not None:
        moved = ", ".join(
            f"{segment_id}->{worker_id}"
            for segment_id, worker_id in sorted(report.moved_segments.items())
        )
        print(
            f"failover: killed worker {report.killed_worker} at round "
            f"{report.kill_round}; rebalanced [{moved or 'nothing'}]"
        )
    if report.dropped_worker is not None:
        print(
            f"chaos: worker {report.dropped_worker} raw-SIGKILLed at "
            f"round {report.drop_round} (supervision must notice)"
        )
    if report.supervision is not None:
        sup = report.supervision
        print(
            f"supervision: {sup.failures_detected} failures detected "
            f"({sup.crashes_detected} crash, {sup.hangs_detected} hang, "
            f"{sup.slow_evictions} slow), {sup.restarts} restarts, "
            f"{sup.recoveries} recoveries, "
            f"{sup.breaker_trips} breaker trips"
        )
        print(
            f"  degraded rounds: {sup.degraded_rounds}, "
            f"stale-ring retries: {sup.stale_ring_retries}, "
            f"mean detection {sup.detection_seconds_avg * 1e3:.0f} ms, "
            f"mean recovery {sup.recovery_rounds_avg:.1f} rounds"
        )
    stats = report.stats
    print(
        f"workload: {report.rounds} rounds, "
        f"{stats.blocks_served} blocks served, "
        f"byte-exact: {'yes' if report.byte_exact else 'NO'}"
    )
    print(
        f"modelled GPU time: serial {stats.gpu_serial_seconds * 1e3:.3f} ms, "
        f"parallel {stats.gpu_parallel_seconds * 1e3:.3f} ms, "
        f"speedup {report.model_speedup:.2f}x"
    )
    print(f"wall time: {report.wall_seconds:.3f} s")
    if report.undecoded_peers:
        print(f"undecoded peers: {list(report.undecoded_peers)}")
    if report.mismatched_peers:
        print(f"mismatched peers: {list(report.mismatched_peers)}")
    return 0 if report.byte_exact else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.faults import ChurnPlan
    from repro.workloads import (
        AutoscalerConfig,
        DiurnalArrivals,
        FlashCrowd,
        run_loadtest,
    )

    if args.sessions < 1 or args.rounds < 1:
        print("error: need >= 1 session and >= 1 round", file=sys.stderr)
        return 2
    arrivals = None
    if args.arrivals == "diurnal":
        rate = args.sessions / args.dwell
        arrivals = DiurnalArrivals(
            rate * 0.25,
            rate * 1.25,
            period_rounds=max(2, args.rounds),
            seed=args.seed,
        )
    flash_crowds = ()
    if args.flash_at is not None:
        flash_crowds = (
            FlashCrowd(
                start_round=args.flash_at,
                duration_rounds=args.flash_rounds,
                multiplier=args.flash_mult,
            ),
        )
    churn = None
    if args.churn > 0 or args.flap > 0:
        churn = ChurnPlan(
            seed=args.seed,
            departure_rate=args.churn,
            flap_rate=args.flap,
        )
    report = run_loadtest(
        target_sessions=args.sessions,
        rounds=args.rounds,
        seed=args.seed,
        mean_dwell_rounds=args.dwell,
        arrivals=arrivals,
        num_segments=args.segments,
        zipf_exponent=args.zipf,
        flash_crowds=flash_crowds,
        churn=churn,
        initial_workers=args.workers,
        autoscaler_config=AutoscalerConfig(
            min_workers=args.min_workers, max_workers=args.max_workers
        ),
        sample_peers=args.sample_peers,
    )
    stats = report.stats
    print(
        f"loadtest: target {report.target_sessions} sessions, "
        f"{report.rounds} rounds, seed {args.seed}"
    )
    print(
        f"population: peak {report.peak_active_sessions} active, "
        f"final {report.final_active_sessions}, "
        f"{stats.arrivals} arrivals, {stats.admitted} admitted, "
        f"{stats.completions} completed, {stats.departures} churned"
    )
    print(
        f"admission: p50 {report.admission_delay_p50:.1f} / "
        f"p99 {report.admission_delay_p99:.1f} rounds queued, "
        f"{stats.shed_responses} RetryLater responses "
        f"({report.waiting_at_end} still waiting)"
    )
    print(
        f"autoscaling: {report.scale_ups} up / {report.scale_downs} down, "
        f"workers {args.workers} -> {report.final_workers} "
        f"(peak {report.peak_workers})"
    )
    print(
        f"cohort: {report.cohort_peers} real peers, "
        f"{report.verified_segments} segments verified, "
        f"{stats.flaps} connection flaps, "
        f"byte-exact: {'yes' if report.byte_exact else 'NO'}"
    )
    print(
        f"wall time: {report.wall_seconds:.3f} s "
        f"({report.rounds_per_s:.1f} rounds/s)"
    )
    return 0 if report.byte_exact else 1


_COMMANDS = {
    "figures": _cmd_figures,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "capacity": _cmd_capacity,
    "kernels": _cmd_kernels,
    "p2p": _cmd_p2p,
    "multicast": _cmd_multicast,
    "stats": _cmd_stats,
    "cluster": _cmd_cluster,
    "loadtest": _cmd_loadtest,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
