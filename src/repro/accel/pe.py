"""The processing element (paper Fig. 9 and Section IV-C/D).

Each PE processes one destination-interval job at a time:

1. pull a job from the scheduler;
2. DMA the interval's initial node values (and V_const for PageRank)
   from DRAM into BRAM -- one outstanding burst, 4 node writes/cycle;
3. fetch the job's edge pointers, then stream the active shards'
   compressed edges with multiple outstanding tagged bursts (beats may
   return out of order across DRAM channels; the shard tag supplies
   the implicit high source bits);
4. for every edge, fetch the source value through the MOMS -- treating
   each in-flight edge as a suspended hardware thread.  Unweighted
   graphs use the destination offset itself as the request ID
   (Fig. 10b: the MOMS stores the whole thread state); weighted graphs
   allocate IDs from a free queue and park (offset, weight) in a state
   memory (Fig. 10a).  use_local_src short-circuits sources resident
   in the current interval to BRAM;
5. run gather() through a pipeline of configurable depth with
   stall-on-RAW (the 4-cycle floating-point PageRank pipeline is what
   throttles the high-locality graphs in Fig. 11);
6. apply() and write the interval back, then notify the scheduler.
"""

import struct
from collections import deque

import numpy as np

from repro.mem.dram import LINE_BYTES, MemRequest
from repro.sim import Component

IDLE = "idle"
INIT_CONST = "init_const"
INIT_VIN = "init_vin"
POINTERS = "pointers"
STREAM = "stream"
WRITEBACK = "writeback"

_U32 = struct.Struct("=I")  # native-endian u32, same layout numpy views use


class BurstRequester:
    """Issues (possibly channel-spanning) bursts into per-channel ports.

    Works directly off the address interleaver's piece list, so the
    capacity probe and beat count allocate nothing; ``issue`` pushes
    one :class:`MemRequest` per piece.
    """

    def __init__(self, mem, channel_ports, respond_to):
        self.mem = mem
        self.interleaver = mem.interleaver
        self.channel_ports = channel_ports
        self.respond_to = respond_to

    def can_issue(self, addr, nbytes, is_write=False):
        pieces = self.interleaver.split(addr, nbytes)
        ports = self.channel_ports
        if len(pieces) == 1:
            return ports[pieces[0][0]].can_push()
        needed = {}
        for channel, _local, _nbytes, _global_addr in pieces:
            needed[channel] = needed.get(channel, 0) + 1
        for channel, count in needed.items():
            if not ports[channel].can_push_n(count):
                return False
        return True

    def beats_for(self, addr, nbytes):
        """Total response beats a read burst will produce.

        A burst split across interleave granules yields one piece per
        channel, and an unaligned piece rounds up to whole lines -- the
        sum can exceed ceil(nbytes / 64).
        """
        return sum(
            -(-piece_bytes // LINE_BYTES)
            for _c, _l, piece_bytes, _g in self.interleaver.split(addr, nbytes)
        )

    def issue(self, addr, nbytes, tag, is_write=False, data=None):
        pieces = self.interleaver.split(addr, nbytes)
        ports = self.channel_ports
        respond_to = self.respond_to
        if is_write:
            data = np.asarray(data, dtype=np.uint8)
        for channel, _local, piece_bytes, global_addr in pieces:
            piece_data = None
            if is_write:
                offset = global_addr - addr
                piece_data = data[offset:offset + piece_bytes]
            ports[channel].push(MemRequest(
                global_addr, piece_bytes, "burst", is_write, tag,
                respond_to, piece_data,
            ))
        return len(pieces)


class PEStats:
    def __init__(self):
        self.edges_processed = 0
        self.raw_stalls = 0
        self.moms_request_stalls = 0
        self.id_stalls = 0
        self.jobs_completed = 0
        self.local_reads = 0
        self.moms_reads = 0


class ProcessingElement(Component):
    """One out-of-order multithreaded PE."""

    def __init__(self, pe_index, spec, layout, mem, config,
                 moms_req, moms_resp, burst_ports, dma_resp,
                 job_channel, done_channel):
        self.pe_index = pe_index
        self.spec = spec
        self.layout = layout
        self.mem = mem
        self.config = config
        self.moms_req = moms_req
        self.moms_resp = moms_resp
        self.dma = BurstRequester(mem, burst_ports, dma_resp)
        self.dma_resp = dma_resp
        self.job_channel = job_channel
        self.done_channel = done_channel
        self.stats = PEStats()

        # Wake on anything that can unblock the state machine: a new
        # job, returned DMA beats / write acks, and MOMS responses.
        # Purely internal progress (BRAM applies, gather commits, burst
        # issue slots) is re-armed per tick in _arm(), which also spins
        # while a burst port is full; a full MOMS request port arms a
        # one-shot space wake at the stall site instead of a static
        # subscription, so bank-side pops stop waking PEs with nothing
        # to send.
        job_channel.subscribe_data(self)
        dma_resp.subscribe_data(self)
        moms_resp.subscribe_data(self)

        part = layout.partitioning
        self._nd = part.n_dst
        self._ns = part.n_src
        self._bram = np.zeros(self._nd, dtype=np.float64)
        self._const_bram = np.zeros(self._nd, dtype=np.float64)
        self._base_const = 0.0  # global scalar constant (set per run)

        # Weighted-graph MOMS interface (Fig. 10a).
        self._free_ids = deque(range(config.id_pool_size))
        self._id_state = {}

        self._phase = IDLE
        self._job = None
        self._engine = None
        self._pipeline = deque()  # (commit_cycle, dst_off, new, old)
        # Decoded edges awaiting dispatch, one [src, dst_off, weight,
        # local] row each (see _decode_shard).
        self._edge_queue = deque()
        self._decoded_backlog_limit = config.dma_queue_beats * 16
        codec = layout.codec
        self._edge_bytes = 4 * codec.words_per_edge
        self._edges_per_beat = LINE_BYTES // self._edge_bytes
        self._outstanding_moms = 0

    # -- per-run configuration --------------------------------------------

    def configure_run(self, base_const):
        self._base_const = base_const

    # -- main tick ----------------------------------------------------------

    def tick(self, engine):
        self._engine = engine
        if self._probe is not None:
            self._probe.pe_tick(self, engine.now)
        phase = self._phase
        if phase == STREAM:
            self._stream_tick(engine)
            return
        if phase == IDLE:
            self._tick_idle(engine)
        elif phase in (INIT_CONST, INIT_VIN):
            self._tick_init(engine)
        elif phase == POINTERS:
            self._tick_pointers(engine)
        elif phase == WRITEBACK:
            self._tick_writeback(engine)
        self._arm(engine)

    def _arm(self, engine):
        """Self-schedule the next tick for progress no channel signals.

        Channel subscriptions cover externally-triggered progress (new
        jobs, DMA beats, MOMS responses, freed port space); this
        re-arm covers the internal kind: BRAM apply/read-out budgets
        and burst issue slots freeing up.  The stream tick makes its
        own wake decision (:meth:`_stream_tick`).
        """
        phase = self._phase
        if phase == IDLE:
            # A job may already be sitting in the channel from before
            # this PE went idle (pushed while we were busy, so its data
            # wake ticked us mid-job and won't fire again).
            if self.job_channel._visible:
                engine.wake(self)
            return
        if phase in (INIT_CONST, INIT_VIN):
            if self._apply_backlog or (
                self._rd_burst_outstanding == 0
                and self._rd_requested < self._rd_total
            ):
                engine.wake(self)
            return
        if phase == POINTERS:
            if not self._ptr_requested:
                engine.wake(self)
            return
        # WRITEBACK: keep stepping while node values remain to send;
        # once everything is issued, the write acks wake us.  The
        # acks-complete clause only matters for empty intervals, whose
        # first writeback tick must still fire to report completion.
        if phase == WRITEBACK and (
                self._wb_sent < self._n_local * 4
                or self._wb_acks_received >= self._wb_acks_expected):
            engine.wake(self)

    def _set_phase(self, phase):
        probe = self._probe
        if probe is not None:
            engine = self._engine
            probe.pe_phase(self, phase,
                           engine.now if engine is not None else 0)
        self._phase = phase

    def is_idle(self):
        return self._phase == IDLE

    # -- idle: pull the next job ---------------------------------------------

    def _tick_idle(self, engine):
        if not self.job_channel._visible:
            return
        job = self.job_channel.pop()
        self._job = job
        lo, hi = self.layout.partitioning.dst_interval_bounds(job.d)
        self._lo, self._hi = lo, hi
        self._n_local = hi - lo
        self._job_updated = False
        self._edges_this_job = 0
        if self.spec.use_const:
            self._start_array_read(
                INIT_CONST, self.layout.v_const_interval_addr(job.d)
            )
        else:
            self._start_array_read(
                INIT_VIN, self.layout.v_in_interval_addr(job.d)
            )

    # -- init: burst-read node arrays into BRAM -------------------------------

    def _start_array_read(self, phase, base_addr):
        self._set_phase(phase)
        self._rd_base = base_addr
        self._rd_total = self._n_local * 4
        self._rd_requested = 0
        self._rd_received = 0
        self._rd_burst_outstanding = 0
        # (start_index, float64 values): each beat lands as
        # ready-to-store values (init already folded in), so the
        # budgeted apply loop is a slice assignment.
        self._apply_backlog = deque()
        self._applied = 0

    def _tick_init(self, engine):
        # One outstanding initialization burst at a time (Section IV-D).
        if (
            self._rd_burst_outstanding == 0
            and self._rd_requested < self._rd_total
        ):
            nbytes = min(self.config.burst_bytes,
                         self._rd_total - self._rd_requested)
            addr = self._rd_base + self._rd_requested
            if self.dma.can_issue(addr, nbytes):
                beats = self.dma.beats_for(addr, nbytes)
                self.dma.issue(addr, nbytes, tag=("init", self._phase))
                self._rd_requested += nbytes
                self._rd_burst_outstanding = beats
        # Drain all arriving beats into the apply backlog in one bulk
        # pop.
        beats = self.dma_resp.pop_all()
        if beats:
            base = self._rd_base
            n_local = self._n_local
            backlog = self._apply_backlog
            # One numpy pass per 16-word beat: widen (and for
            # INIT_VIN, init) the whole beat now; the budget loop
            # below only slices.
            const_phase = self._phase == INIT_CONST
            init_vec = self.spec.init_vec
            const_bram = self._const_bram
            for beat in beats:
                start = (beat.addr - base) // 4
                count = min(16, n_local - start)
                words = beat.data[:4 * count].view(np.uint32)
                if const_phase:
                    vals = words.astype(np.float64)
                else:
                    vals = init_vec(const_bram[start:start + count], words)
                backlog.append((start, vals))
            self._rd_burst_outstanding -= len(beats)
            self._rd_received += len(beats)
        # Apply at the BRAM port rate (4 node writes per cycle).
        budget = self.config.init_nodes_per_cycle
        target = (self._const_bram if self._phase == INIT_CONST
                  else self._bram)
        while budget > 0 and self._apply_backlog:
            start, vals = self._apply_backlog[0]
            take = min(budget, len(vals))
            target[start:start + take] = vals[:take]
            self._applied += take
            budget -= take
            if take == len(vals):
                self._apply_backlog.popleft()
            else:
                self._apply_backlog[0] = (start + take, vals[take:])
        if self._applied == self._n_local and \
                self._rd_requested == self._rd_total and \
                self._rd_burst_outstanding == 0:
            if self._phase == INIT_CONST:
                self._start_array_read(
                    INIT_VIN, self.layout.v_in_interval_addr(self._job.d)
                )
            else:
                self._start_pointers()

    # -- edge pointers ---------------------------------------------------------

    def _start_pointers(self):
        self._set_phase(POINTERS)
        self._ptr_beats_expected = None  # known once the burst is issued
        self._ptr_beats_received = 0
        self._ptr_requested = False

    def _tick_pointers(self, engine):
        part = self.layout.partitioning
        base = self.layout.edge_ptr_addr(self._job.d, 0)
        nbytes = part.q_src * 8
        if not self._ptr_requested:
            if self.dma.can_issue(base, nbytes):
                # The pointer array is not line-aligned per job, so the
                # beat count must come from the actual piece split.
                self._ptr_beats_expected = self.dma.beats_for(base, nbytes)
                self.dma.issue(base, nbytes, tag=("ptrs",))
                self._ptr_requested = True
            return
        self._ptr_beats_received += len(self.dma_resp.pop_all())
        if self._ptr_beats_received < self._ptr_beats_expected:
            return
        self._start_stream()
        # The first stream tick always runs; it arms every later one.
        engine.wake(self)

    def _start_stream(self):
        """Parse the pointers (bit-identical to the transferred beats)."""
        layout = self.layout
        shards = []
        for s in range(layout.partitioning.q_src):
            addr, count, active = layout.read_pointer(
                self.mem, self._job.d, s)
            if active and count:
                shards.append({
                    "s": s,
                    "addr": addr,
                    "count": count,
                    "bytes_total": layout.codec.shard_bytes(count),
                    "bytes_requested": 0,
                    "edges_decoded": 0,
                    "rows": None,  # decoded at the shard's first burst
                })
        self._shards = shards
        self._shard_by_s = {shard["s"]: shard for shard in shards}
        self._stream_cursor = 0
        self._bursts_outstanding = 0
        self._beats_outstanding = 0
        self._set_phase(STREAM)

    def _decode_shard(self, shard):
        """One shard's edge-queue rows, decoded once, as a uint32 array.

        The codec that wrote the shard decodes it from the memory image
        the DMA beats copy: no run writes the edge region, so every
        beat carries exactly these words, and a beat queues its slice
        of the rows (:meth:`_queue_beat_edges`).  Columns: global source
        node, destination offset, weight (0 when the algorithm is
        unweighted) and the BRAM-local flag.  Every field fits 32 bits,
        and 32-bit rows keep the decoded shards from raising peak RSS
        (64-bit rows with a fifth, address column did by 0.3 MiB on
        ``pr-starved``).
        """
        decoded = self.layout.codec.decode_shard(self.mem.view_u32(
            shard["addr"], shard["bytes_total"] // 4))
        srcs = shard["s"] * self._ns + decoded[0]
        rows = np.zeros((len(srcs), 4), dtype=np.uint32)
        rows[:, 0] = srcs
        rows[:, 1] = decoded[1]
        if self.spec.weighted:
            rows[:, 2] = decoded[2]
        if self.spec.use_local_src:
            rows[:, 3] = (srcs >= self._lo) & (srcs < self._hi)
        return rows

    # -- edge streaming + gather ------------------------------------------------

    def _stream_tick(self, engine):
        """One STREAM cycle, ending with its own wake decision.

        The stream sub-stages run every cycle in hardware: commit due
        gather results, issue an edge burst, queue one DMA beat's edges,
        serve one MOMS response, dispatch the head edge.  In simulation
        most are no-ops on a given tick, so each is guarded inline
        rather than paid for as a call.
        """
        now = engine.now
        pipeline = self._pipeline
        bram = self._bram
        spec = self.spec
        stats = self.stats
        if pipeline and pipeline[0][0] <= now:
            always_active = spec.always_active
            while pipeline and pipeline[0][0] <= now:
                _, dst_off, new, old = pipeline.popleft()
                bram[dst_off] = new
                if always_active or new != old:
                    self._job_updated = True
        shards = self._shards
        if self._stream_cursor < len(shards):
            self._request_edge_bursts()
        dma_resp = self.dma_resp
        if dma_resp._visible:
            # One beat per cycle (512-bit port): an architectural rate.
            self._queue_beat_edges(dma_resp.pop())
        queue = self._edge_queue
        moms_resp = self.moms_resp
        probe = self._probe
        # Serving a MOMS response takes the gather slot this cycle,
        # whether it enters the pipeline or stalls on a RAW hazard.
        gather_free = not moms_resp._visible
        if not gather_free:
            token = moms_resp.front()
            req_id = token.req_id
            if probe is not None:
                # Peek-time check: a corrupted or misrouted ID is
                # flagged here, before it indexes the thread-state
                # memory below.
                probe.pe_verify(self, req_id)
            if spec.weighted:
                dst_off, weight = self._id_state[req_id]
            else:
                dst_off, weight = req_id, 0
            hazard = False
            for entry in pipeline:
                if entry[1] == dst_off:
                    hazard = True
                    break
            if hazard:
                stats.raw_stalls += 1
            else:
                word = _U32.unpack_from(token.data)[0]
                moms_resp.pop()
                self._outstanding_moms -= 1
                if probe is not None:
                    probe.pe_retire(self, req_id, token.addr, now)
                if spec.weighted:
                    del self._id_state[req_id]
                    self._free_ids.append(req_id)
                old = bram[dst_off]
                pipeline.append((
                    now + spec.gather_latency, dst_off,
                    spec.gather(spec.decode(word), old, weight), old,
                ))
                stats.edges_processed += 1
                self._edges_this_job += 1
        moms_req = self.moms_req
        if queue:
            # Dispatch the head edge: a local BRAM read into the gather
            # pipeline, or a MOMS request that suspends the edge.
            src, dst_off, weight, local = queue[0]
            if local:
                if gather_free:
                    hazard = False
                    for entry in pipeline:
                        if entry[1] == dst_off:
                            hazard = True
                            break
                    if hazard:
                        stats.raw_stalls += 1
                    else:
                        queue.popleft()
                        old = bram[dst_off]
                        pipeline.append((
                            now + spec.gather_latency, dst_off,
                            spec.gather(bram[src - self._lo], old, weight),
                            old,
                        ))
                        stats.edges_processed += 1
                        self._edges_this_job += 1
                        stats.local_reads += 1
            elif moms_req._occ + moms_req._staged_n >= moms_req.capacity:
                stats.moms_request_stalls += 1
                moms_req.request_space_wake(self)
            elif spec.weighted and not self._free_ids:
                stats.id_stalls += 1
            else:
                if spec.weighted:
                    req_id = self._free_ids.popleft()
                    self._id_state[req_id] = (dst_off, weight)
                else:
                    req_id = dst_off
                queue.popleft()
                addr = self.layout.v_in_addr + src * 4
                moms_req.push_request(addr, 4, req_id, self.pe_index)
                if probe is not None:
                    probe.pe_issue(self, req_id, addr, now)
                self._outstanding_moms += 1
                stats.moms_reads += 1
        if not (self._bursts_outstanding or queue or pipeline
                or self._outstanding_moms) and self._stream_done():
            self._start_writeback()
            engine.wake(self)
            return
        # The wake decision.  A PE blocked only on its gather pipeline
        # sleeps until the head commit's cycle.
        if pipeline:
            engine.wake_at(self, pipeline[0][0])
        if (dma_resp._visible or moms_resp._visible or (
                # A burst slot worth retrying.
                self._stream_cursor < len(shards)
                and self._bursts_outstanding
                < self.config.max_outstanding_edge_bursts
                and len(queue) + self._beats_outstanding * 16
                <= self._decoded_backlog_limit)):
            # Beats to queue, responses to serve (or spin on a RAW
            # hazard, one stall per cycle), or a burst to issue.
            engine.wake(self)
        elif queue:
            # Progress on the head edge is all that remains; wake only
            # if it can move without an external event.
            if queue[0][3]:
                engine.wake(self)  # local read, gated only on gather
            elif spec.weighted and not self._free_ids:
                pass  # IDs free only via responses -> moms_resp wake
            elif moms_req._occ + moms_req._staged_n < moms_req.capacity:
                engine.wake(self)
            else:
                # Request port full: one-shot wake from its next commit
                # with free space (usually already armed by the
                # dispatch stall this tick; dedup'd).
                moms_req.request_space_wake(self)

    def _request_edge_bursts(self):
        config = self.config
        if self._bursts_outstanding >= config.max_outstanding_edge_bursts:
            return
        backlog = len(self._edge_queue) + self._beats_outstanding * 16
        if backlog > self._decoded_backlog_limit:
            return
        while self._stream_cursor < len(self._shards):
            shard = self._shards[self._stream_cursor]
            if shard["bytes_requested"] >= shard["bytes_total"]:
                self._stream_cursor += 1
                continue
            nbytes = min(config.burst_bytes,
                         shard["bytes_total"] - shard["bytes_requested"])
            addr = shard["addr"] + shard["bytes_requested"]
            if not self.dma.can_issue(addr, nbytes):
                return
            # A burst spanning an interleave granule becomes one piece
            # per channel; each piece ends with its own last-beat.
            beats = self.dma.beats_for(addr, nbytes)
            pieces = self.dma.issue(addr, nbytes, tag=("edges", shard["s"]))
            if not shard["bytes_requested"]:
                shard["rows"] = self._decode_shard(shard)
            shard["bytes_requested"] += nbytes
            self._bursts_outstanding += pieces
            self._beats_outstanding += beats
            return  # one burst issued per cycle

    def _queue_beat_edges(self, beat):
        """Queue the edges one DMA beat of a shard carries.

        The beat's rows are its slice of the shard's decoded rows: the
        edges from the beat's first word up to the shard's terminator.
        The rows are dropped once the shard's last edge is queued.
        """
        tag = beat.tag
        if tag[0] != "edges":
            raise AssertionError(f"unexpected DMA beat {tag} in stream")
        if beat.last:
            self._bursts_outstanding -= 1
        self._beats_outstanding -= 1
        shard = self._shard_by_s[tag[1]]
        first = (beat.addr - shard["addr"]) // self._edge_bytes
        n = min(self._edges_per_beat, shard["count"] - first)
        if n > 0:
            decoded = shard["edges_decoded"] + n
            if decoded > shard["count"]:
                raise AssertionError(
                    "decoded more edges than the shard has")
            self._edge_queue.extend(
                shard["rows"][first:first + n].tolist())
            shard["edges_decoded"] = decoded
            if decoded == shard["count"]:
                shard["rows"] = None

    def _stream_done(self):
        if self._bursts_outstanding or self._edge_queue or self._pipeline:
            return False
        if self._outstanding_moms > 0:
            return False
        return all(
            sh["bytes_requested"] >= sh["bytes_total"]
            and sh["edges_decoded"] == sh["count"]
            for sh in self._shards
        )

    # -- writeback -----------------------------------------------------------

    def _start_writeback(self):
        self._set_phase(WRITEBACK)
        n = self._n_local
        # Whole-interval apply+encode in one columnar pass; the hook
        # keeps the per-node operation order, so the words are
        # bit-identical to apply/encode run node by node.
        words = self.spec.apply_enc_vec(
            self._bram[:n], self._const_bram[:n], self._base_const
        )
        self._wb_words = words
        self._wb_sent = 0
        self._wb_acks_expected = 0
        self._wb_acks_received = 0
        # Model the 4-values/cycle BRAM read rate as a head start delay.
        self._wb_ready_budget = 0

    def _tick_writeback(self, engine):
        acks = self.dma_resp.pop_all()
        if acks:
            for ack in acks:
                if not ack.is_write_ack:
                    raise AssertionError("unexpected read beat in writeback")
            self._wb_acks_received += len(acks)
        # The BRAM read port feeds 4 node values per cycle into the DMA.
        self._wb_ready_budget = min(
            self._wb_ready_budget + self.config.init_nodes_per_cycle * 4,
            self._n_local * 4,
        )
        total = self._n_local * 4
        if self._wb_sent < total:
            ready = self._wb_ready_budget - self._wb_sent
            nbytes = min(self.config.burst_bytes, total - self._wb_sent,
                         ready)
            if nbytes >= 4:
                addr = self.layout.v_out_interval_addr(self._job.d) + \
                    self._wb_sent
                if self.dma.can_issue(addr, nbytes, is_write=True):
                    data = self._wb_words.view(np.uint8)[
                        self._wb_sent:self._wb_sent + nbytes
                    ]
                    pieces = self.dma.issue(addr, nbytes, tag=("wb",),
                                            is_write=True, data=data)
                    self._wb_acks_expected += pieces
                    self._wb_sent += nbytes
        if (
            self._wb_sent == total
            and self._wb_acks_received == self._wb_acks_expected
        ):
            self.done_channel.push((self._job.d, self._job_updated))
            self.stats.jobs_completed += 1
            self._set_phase(IDLE)
            self._job = None
