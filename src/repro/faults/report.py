"""Structured stall reports: who is waiting on which channel or timer.

Built purely by introspecting an :class:`~repro.sim.engine.Engine` at
diagnosis time, so the running simulation pays nothing for the ability
to produce one.  Consumed by the engine's deadlock path, the watchdog,
and the fault-smoke harness (which uploads them as CI artifacts).
"""


def _component_label(component):
    kind = type(component).__name__
    name = getattr(component, "name", None)
    order = getattr(component, "_engine_order", -1)
    if name:
        return f"{kind}({name})#{order}"
    index = getattr(component, "pe_index", None)
    if index is not None:
        return f"{kind}(pe{index})#{order}"
    return f"{kind}#{order}"


def build_stall_report(engine, reason=""):
    """Snapshot the engine's wait structure as a plain dict.

    The report answers the deadlock triage questions directly: which
    channels hold undelivered tokens and who subscribes to them, which
    channels are full and who is blocked on their space, which timers
    are still scheduled, and what every non-idle component looks like.
    """
    channels = []
    for channel in engine._channels:
        visible = len(channel)
        staged = channel.pending - visible
        if not channel.pending and channel.capacity > 0 \
                and not channel._space_requests:
            continue
        channels.append({
            "name": channel.name or "<anon>",
            "capacity": channel.capacity,
            "visible": visible,
            "staged": staged,
            "full": channel.pending >= channel.capacity,
            "data_waiters": [
                _component_label(c) for c in channel._data_subs
            ],
            "space_waiters": [
                _component_label(c) for c in channel._space_requests
            ],
        })
    components = []
    for component in engine._components:
        idle = component.is_idle()
        if idle and not component.ticks:
            continue
        components.append({
            "component": _component_label(component),
            "idle": idle,
            "ticks": component.ticks,
            "wakes": component.wakes,
            "armed": component._engine_order in engine._wake_next,
        })
    from repro.core.stats import component_breakdown

    timers = sorted(engine._timers)[:16]
    time_sources = []
    for source in engine._time_sources:
        if not source.pending:
            continue
        time_sources.append({
            "source": _component_label(source),
            "pending": source.pending,
            "next_event": source.next_event_time(),
        })
    checkpoint = None
    checkpointer = getattr(engine, "checkpointer", None)
    if checkpointer is not None and checkpointer.last_path is not None:
        checkpoint = {
            "path": checkpointer.last_path,
            "cycle": checkpointer.last_cycle,
            "replay": checkpointer.replay_command(),
        }
    flight_recorder = None
    probe = getattr(engine, "probe", None)
    for observer in probe.observers if probe is not None else ():
        recorder = getattr(observer, "recorder", None)  # the span tracer's
        if recorder is not None:
            flight_recorder = {
                "depth": recorder.depth,
                "recorded": recorder.recorded,
                "tail": recorder.tail(32),
            }
            break
    return {
        "reason": reason,
        "cycle": engine.now,
        "checkpoint": checkpoint,
        "flight_recorder": flight_recorder,
        "cycles_simulated": engine.cycles_simulated,
        "component_ticks": engine.component_ticks,
        "component_breakdown": [
            {"component": e.kind, "count": e.count,
             "ticks": e.ticks, "wakes": e.wakes}
            for e in component_breakdown(engine)
        ],
        "stuck_channels": channels,
        "components": components,
        "timers": [
            {"time": t,
             "component": _component_label(engine._components[order])}
            for t, order in timers
        ],
        "time_sources": time_sources,
    }


def format_stall_report(report):
    """Render a stall report as indented text for exception messages."""
    lines = [
        f"stall report at cycle {report['cycle']}"
        + (f" ({report['reason']})" if report.get("reason") else "")
    ]
    stuck = report["stuck_channels"]
    if stuck:
        lines.append("  channels holding or blocking work:")
        for ch in stuck:
            state = "FULL" if ch["full"] else f"{ch['visible']}+{ch['staged']}"
            waiters = []
            if ch["data_waiters"]:
                waiters.append("data->" + ",".join(ch["data_waiters"]))
            if ch["space_waiters"]:
                waiters.append("space->" + ",".join(ch["space_waiters"]))
            lines.append(
                f"    {ch['name']} [{state}/{ch['capacity']}] "
                + ("; ".join(waiters) if waiters else "(no subscribers)")
            )
    busy = [c for c in report["components"] if not c["idle"]]
    if busy:
        lines.append("  non-idle components:")
        for comp in busy:
            armed = " armed" if comp["armed"] else ""
            lines.append(
                f"    {comp['component']} ticks={comp['ticks']} "
                f"wakes={comp['wakes']}{armed}"
            )
    if report["timers"]:
        lines.append("  pending timers:")
        for timer in report["timers"]:
            lines.append(f"    t={timer['time']} -> {timer['component']}")
    if report["time_sources"]:
        lines.append("  time sources with in-flight tokens:")
        for source in report["time_sources"]:
            lines.append(
                f"    {source['source']} pending={source['pending']} "
                f"next={source['next_event']}"
            )
    breakdown = [
        row for row in report.get("component_breakdown", ())
        if row.get("ticks")
    ]
    if breakdown:
        lines.append("  ticks by component class:")
        for row in breakdown[:6]:
            lines.append(
                f"    {row['component']} x{row['count']} "
                f"ticks={row['ticks']} wakes={row['wakes']}"
            )
    if len(lines) == 1:
        lines.append("  (no stuck channels, busy components, or timers)")
    flight = report.get("flight_recorder")
    if flight and flight.get("tail"):
        tail = flight["tail"]
        lines.append(
            f"  flight recorder (last {len(tail)} of "
            f"{flight['recorded']} events, oldest first):"
        )
        for event in tail:
            lines.append(
                "    [{cycle:>10}] {event:<12} {where:<16} "
                "{detail}".format(**event)
            )
    checkpoint = report.get("checkpoint")
    if checkpoint:
        lines.append(
            f"  last checkpoint: {checkpoint['path']} "
            f"(cycle {checkpoint['cycle']})"
        )
        lines.append(f"  replay up to this failure: {checkpoint['replay']}")
    return "\n".join(lines)
