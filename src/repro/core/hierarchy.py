"""MOMS hierarchy compositions (paper Fig. 8).

Four organizations are supported:

* ``shared``     -- PEs reach B shared banks through request/response
  crossbars; banks are statically bound to DRAM channels.  This is the
  original MOMS of the authors' prior work; bank conflicts limit it.
* ``private``    -- one bank per PE, no crossbar contention, but no
  inter-PE coalescing (more DRAM traffic).
* ``two-level``  -- private banks filter requests before a shared MOMS,
  like a two-level cache; the paper's best performer.
* ``traditional``-- same two-level wiring but with classic blocking
  non-blocking caches (16 fully-associative MSHRs, 8 subentries each).

The builder also inserts registered die crossings on every path that
spans SLRs according to the floorplan, so large multi-die designs pay
the latency the paper engineers around.
"""

from dataclasses import dataclass

from repro.core.bank import BankParams, MomsBank
from repro.fabric.arbiter import RoundRobinArbiter
from repro.fabric.crossbar import Crossbar
from repro.fabric.crossing import cross_link
from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
)
from repro.mem.dram import LINE_BYTES, MemRequest
from repro.sim import Channel


def _route_by_port(response):
    """Response-crossbar route: back to the requesting PE's port.

    A module-level function (not a lambda) so crossbars pickle into
    snapshots; see ``repro.checkpoint.protocol``.
    """
    return response.port


class DramDownstream:
    """Issues single 64-byte line reads to the owning DRAM channel."""

    def __init__(self, mem, request_ports, respond_to):
        self.mem = mem
        self.request_ports = request_ports  # one Channel per DRAM channel
        self.respond_to = respond_to
        self.lines_requested = 0

    @property
    def wake_channels(self):
        """Channels whose freed space can unblock a stalled issue."""
        return [port for port in self.request_ports if port is not None]

    def can_accept(self, line_addr):
        channel = self.mem.channel_of(line_addr * LINE_BYTES)
        return self.request_ports[channel].can_push()

    def request_wake(self, line_addr, component):
        """One-shot wake when the port a stalled issue needs frees up."""
        channel = self.mem.channel_of(line_addr * LINE_BYTES)
        self.request_ports[channel].request_space_wake(component)

    def issue(self, line_addr):
        addr = line_addr * LINE_BYTES
        channel = self.mem.channel_of(addr)
        self.request_ports[channel].push(MemRequest(
            addr, LINE_BYTES, "single", False, None, self.respond_to, None,
        ))
        self.lines_requested += 1


class MomsDownstream:
    """Private bank requesting full lines from the shared level."""

    def __init__(self, req_out, port):
        self.req_out = req_out
        self.port = port
        self.lines_requested = 0

    @property
    def wake_channels(self):
        """Channels whose freed space can unblock a stalled issue."""
        return [self.req_out]

    def can_accept(self, line_addr):
        return self.req_out.can_push()

    def request_wake(self, line_addr, component):
        """One-shot wake when the shared-level request port frees up."""
        self.req_out.request_space_wake(component)

    def issue(self, line_addr):
        self.req_out.push_request(
            line_addr * LINE_BYTES, LINE_BYTES, None, self.port
        )
        self.lines_requested += 1


@dataclass
class HierarchySizes:
    """Simulator-scale structural sizes for both levels."""

    shared: BankParams
    private: BankParams

    @classmethod
    def from_design(cls, design, scale=1.0, cache_scale=None):
        """Scale the paper-size structures in *design* down for simulation.

        ``scale`` multiplies MSHR/subentry capacities; ``cache_scale``
        (default ``scale / 8``) shrinks the cache arrays further so the
        paper's key capacity ratio -- cache much smaller than the node
        set -- survives the graph downscaling.  Traditional-cache
        designs keep their 16 MSHRs / 8 subentries per MSHR unscaled --
        those numbers are already tiny and are the point of the
        baseline.
        """
        if cache_scale is None:
            cache_scale = scale / 8

        def scaled(value, minimum, factor=scale):
            return max(minimum, int(value * factor))

        traditional = design.organization == MOMS_TRADITIONAL
        shared = BankParams(
            n_mshrs=(design.traditional_mshrs if traditional
                     else scaled(design.shared_mshrs, 16)),
            n_subentries=(
                design.traditional_mshrs * design.traditional_subentries_per_mshr
                if traditional
                else scaled(design.shared_subentries, 64)
            ),
            cache_lines=scaled(design.shared_cache_kib * 1024 // LINE_BYTES,
                               0, cache_scale),
            cache_assoc=1,
            mshr_max_kicks=design.mshr_max_kicks,
            associative_mshrs=traditional,
            subentries_per_mshr=(design.traditional_subentries_per_mshr
                                 if traditional else 0),
        )
        private_cache_lines = scaled(
            design.private_cache_kib * 1024 // LINE_BYTES, 0, cache_scale
        )
        assoc = 4 if private_cache_lines >= 4 else 1
        private = BankParams(
            n_mshrs=(design.traditional_mshrs if traditional
                     else scaled(design.private_mshrs, 16)),
            n_subentries=(
                design.traditional_mshrs * design.traditional_subentries_per_mshr
                if traditional
                else scaled(design.private_subentries, 64)
            ),
            cache_lines=private_cache_lines - private_cache_lines % assoc,
            cache_assoc=assoc,
            mshr_max_kicks=design.mshr_max_kicks,
            associative_mshrs=traditional,
            subentries_per_mshr=(design.traditional_subentries_per_mshr
                                 if traditional else 0),
        )
        return cls(shared=shared, private=private)


class MemoryHierarchy:
    """The assembled irregular-read path between PEs and DRAM."""

    def __init__(self, engine, mem, design, sizes=None, scale=1.0,
                 cache_scale=None, floorplan=None, queue_depth=8):
        self.design = design
        self.mem = mem
        self.sizes = sizes or HierarchySizes.from_design(design, scale,
                                                         cache_scale)
        self.floorplan = floorplan
        self.queue_depth = queue_depth
        self.private_banks = []
        self.shared_banks = []
        self.crossbars = []
        self.pe_req_ports = []
        self.pe_resp_ports = []
        self._dram_request_ports = []
        self._build(engine)

    # -- construction helpers ---------------------------------------------

    def _link(self, engine, die_a, die_b, capacity, name):
        """Channel pair joined by a die crossing when dies differ."""
        hops = 0
        if self.floorplan is not None and die_a is not None and die_b is not None:
            hops = self.floorplan.hops(die_a, die_b)
        return cross_link(engine, capacity, hops, name=name)

    def _pe_die(self, pe):
        if self.floorplan is None:
            return None
        return self._pe_dies[pe]

    def _bank_die(self, bank):
        if self.floorplan is None:
            return None
        return self.floorplan.die_of_bank(
            bank, self.design.n_banks, self.mem.n_channels
        )

    def bank_of_line(self, line_addr):
        """Shared bank serving *line_addr* (static channel binding)."""
        n_banks = self.design.n_banks
        n_channels = self.mem.n_channels
        channel = self.mem.channel_of(line_addr * LINE_BYTES)
        banks_per_channel = n_banks // n_channels
        return channel * banks_per_channel + line_addr % banks_per_channel

    # Crossbar route hooks as named callables (a bound method and a
    # module function) rather than inline lambdas: snapshots pickle the
    # whole system, and lambdas do not pickle.

    def route_request(self, request):
        """Request-crossbar route: by the line address's owning bank."""
        return self.bank_of_line(request.addr // LINE_BYTES)

    def _make_dram_ports(self, engine, n_clients, client_dies,
                         client_channels=None):
        """Per-DRAM-channel arbitrated request ports for *n_clients*.

        Returns per-client, per-channel input channels; each channel's
        arbiter merges them into the DRAM request queue.
        ``client_channels`` restricts which channels each client can
        address (shared banks are statically bound to one channel and
        never need ports to the others).
        """
        plan = self.floorplan
        ports = [[None] * self.mem.n_channels for _ in range(n_clients)]
        for channel_index, channel in enumerate(self.mem.channels):
            inputs = []
            for client in range(n_clients):
                if client_channels is not None and \
                        channel_index not in client_channels[client]:
                    continue
                die_a = client_dies[client] if client_dies else None
                die_b = (plan.die_of_channel(channel_index)
                         if plan is not None else None)
                near, far = self._link(
                    engine, die_a, die_b, 4,
                    name=f"dramreq.c{client}.ch{channel_index}",
                )
                ports[client][channel_index] = near
                inputs.append(far)
            engine.add_component(
                RoundRobinArbiter(inputs, channel.req,
                                  name=f"dram{channel_index}.arb")
            )
        return ports

    def _bank_channels(self):
        """Channel owned by each shared bank (static binding)."""
        n_banks = self.design.n_banks
        banks_per_channel = n_banks // self.mem.n_channels
        return [[bank // banks_per_channel] for bank in range(n_banks)]

    # -- organization builders ----------------------------------------------

    def _build(self, engine):
        design = self.design
        if design.has_shared_level and design.n_banks % self.mem.n_channels:
            raise ValueError("n_banks must be a multiple of n_channels")
        if self.floorplan is not None:
            self._pe_dies = self.floorplan.assign_pes(design.n_pes)
        depth = self.queue_depth
        self.pe_req_ports = [
            engine.add_channel(Channel(depth, name=f"pe{pe}.req"))
            for pe in range(design.n_pes)
        ]
        self.pe_resp_ports = [
            engine.add_channel(Channel(depth * 2, name=f"pe{pe}.resp"))
            for pe in range(design.n_pes)
        ]

        if design.organization == MOMS_SHARED:
            self._build_shared(engine)
        elif design.organization == MOMS_PRIVATE:
            self._build_private(engine)
        elif design.organization in (MOMS_TWO_LEVEL, MOMS_TRADITIONAL):
            self._build_two_level(engine)
        else:
            raise ValueError(design.organization)

    def _build_shared(self, engine):
        design = self.design
        plan = self.floorplan
        xbar_die = plan.crossbar_die if plan is not None else None

        # PE -> crossbar (with die crossings to the central SLR).
        xbar_req_inputs = []
        for pe, port in enumerate(self.pe_req_ports):
            near, far = self._link(engine, self._pe_die(pe), xbar_die,
                                   self.queue_depth, name=f"pe{pe}.toxbar")
            self._reroute_pe_req_port(pe, near, port)
            xbar_req_inputs.append(far)

        bank_req_ins = []
        bank_resp_outs = []
        bank_dies = [self._bank_die(b) for b in range(design.n_banks)]
        dram_ports = self._make_dram_ports(engine, design.n_banks, bank_dies,
                                           self._bank_channels())
        for b in range(design.n_banks):
            req_near, req_far = self._link(engine, xbar_die, bank_dies[b],
                                           8, name=f"bank{b}.req")
            resp_near, resp_far = self._link(engine, bank_dies[b], xbar_die,
                                             8, name=f"bank{b}.resp")
            line_in = engine.add_channel(Channel(16, name=f"bank{b}.line"))
            bank = MomsBank(
                self.sizes.shared,
                req_in=req_far,
                resp_out=resp_near,
                line_in=line_in,
                downstream=DramDownstream(self.mem, dram_ports[b], line_in),
                store=self.mem,
                name=f"shared{b}",
                seed=b + 1,
            )
            engine.add_component(bank)
            self.shared_banks.append(bank)
            bank_req_ins.append(req_near)
            bank_resp_outs.append(resp_far)

        req_xbar = Crossbar(
            xbar_req_inputs,
            bank_req_ins,
            route=self.route_request,
            name="moms.reqxbar",
        )
        engine.add_component(req_xbar)
        self.crossbars.append(req_xbar)

        # Crossbar -> PE response path (crossings back out to PE dies).
        xbar_resp_outputs = []
        for pe in range(design.n_pes):
            near, far = self._link(engine, xbar_die, self._pe_die(pe),
                                   self.queue_depth * 2,
                                   name=f"pe{pe}.fromxbar")
            self._chain_to_resp_port(engine, far, self.pe_resp_ports[pe])
            xbar_resp_outputs.append(near)
        resp_xbar = Crossbar(
            bank_resp_outs,
            xbar_resp_outputs,
            route=_route_by_port,
            name="moms.respxbar",
        )
        engine.add_component(resp_xbar)
        self.crossbars.append(resp_xbar)

    def _build_private(self, engine):
        design = self.design
        pe_dies = ([self._pe_die(pe) for pe in range(design.n_pes)]
                   if self.floorplan is not None else None)
        dram_ports = self._make_dram_ports(engine, design.n_pes, pe_dies)
        for pe in range(design.n_pes):
            line_in = engine.add_channel(Channel(16, name=f"p{pe}.line"))
            bank = MomsBank(
                self.sizes.private,
                req_in=self.pe_req_ports[pe],
                resp_out=self.pe_resp_ports[pe],
                line_in=line_in,
                downstream=DramDownstream(self.mem, dram_ports[pe], line_in),
                store=self.mem,
                name=f"private{pe}",
                seed=pe + 1,
            )
            engine.add_component(bank)
            self.private_banks.append(bank)

    def _build_two_level(self, engine):
        design = self.design
        plan = self.floorplan
        xbar_die = plan.crossbar_die if plan is not None else None

        # Private level, one bank per PE, on the PE's die.
        l1_req_outs = []  # towards the shared crossbar
        for pe in range(design.n_pes):
            near, far = self._link(engine, self._pe_die(pe), xbar_die,
                                   self.queue_depth, name=f"l1_{pe}.down")
            line_near, line_far = self._link(
                engine, xbar_die, self._pe_die(pe), 16, name=f"l1_{pe}.fill"
            )
            bank = MomsBank(
                self.sizes.private,
                req_in=self.pe_req_ports[pe],
                resp_out=self.pe_resp_ports[pe],
                line_in=line_far,
                downstream=MomsDownstream(near, port=pe),
                store=self.mem,
                name=f"private{pe}",
                seed=pe + 101,
            )
            engine.add_component(bank)
            self.private_banks.append(bank)
            l1_req_outs.append(far)
            bank._fill_port = line_near  # shared level responds here

        # Shared level: crossbar -> banks -> DRAM.
        bank_req_ins = []
        bank_resp_outs = []
        bank_dies = [self._bank_die(b) for b in range(design.n_banks)]
        dram_ports = self._make_dram_ports(engine, design.n_banks, bank_dies,
                                           self._bank_channels())
        for b in range(design.n_banks):
            req_near, req_far = self._link(engine, xbar_die, bank_dies[b],
                                           8, name=f"l2_{b}.req")
            resp_near, resp_far = self._link(engine, bank_dies[b], xbar_die,
                                             8, name=f"l2_{b}.resp")
            line_in = engine.add_channel(Channel(16, name=f"l2_{b}.line"))
            bank = MomsBank(
                self.sizes.shared,
                req_in=req_far,
                resp_out=resp_near,
                line_in=line_in,
                downstream=DramDownstream(self.mem, dram_ports[b], line_in),
                store=self.mem,
                name=f"shared{b}",
                seed=b + 1,
            )
            engine.add_component(bank)
            self.shared_banks.append(bank)
            bank_req_ins.append(req_near)
            bank_resp_outs.append(resp_far)

        req_xbar = Crossbar(
            l1_req_outs,
            bank_req_ins,
            route=self.route_request,
            name="l2.reqxbar",
        )
        engine.add_component(req_xbar)
        self.crossbars.append(req_xbar)

        resp_xbar = Crossbar(
            bank_resp_outs,
            [bank._fill_port for bank in self.private_banks],
            route=_route_by_port,
            name="l2.respxbar",
        )
        engine.add_component(resp_xbar)
        self.crossbars.append(resp_xbar)

    # -- plumbing helpers ---------------------------------------------------

    def _reroute_pe_req_port(self, pe, near, old_port):
        """Replace the PE-facing request port with the crossing input."""
        if near is not old_port:
            self.pe_req_ports[pe] = near

    def _chain_to_resp_port(self, engine, source, dest):
        """Forward tokens from *source* into *dest* (1/cycle)."""
        if source is dest:
            return
        engine.add_component(RoundRobinArbiter([source], dest,
                                               name=f"{dest.name}.fwd"))

    # -- statistics / inspection ---------------------------------------------

    @property
    def banks(self):
        return self.private_banks + self.shared_banks

    def outstanding_misses(self):
        return sum(bank.outstanding_misses for bank in self.banks)

    def is_idle(self):
        return all(bank.is_idle() for bank in self.banks)

    def total_requests(self):
        """PE-level irregular reads served."""
        level = self.private_banks or self.shared_banks
        return sum(bank.stats.requests for bank in level)

    def dram_lines_requested(self):
        level = self.shared_banks or self.private_banks
        return sum(bank.stats.primary_misses for bank in level)

    def hit_rate(self):
        """Fraction of PE requests hitting in either cache level (Fig. 12)."""
        total = self.total_requests()
        if not total:
            return 0.0
        hits = sum(bank.stats.cache_hits for bank in self.private_banks)
        # Shared-level hits also count, expressed against PE requests.
        hits += sum(bank.stats.cache_hits for bank in self.shared_banks)
        return min(1.0, hits / total)

    def stall_breakdown(self):
        keys = ("stall_mshr", "stall_subentry", "stall_downstream",
                "stall_response_port")
        return {
            key: sum(getattr(bank.stats, key) for bank in self.banks)
            for key in keys
        }


def build_hierarchy(engine, mem, design, scale=1.0, cache_scale=None,
                    floorplan=None, queue_depth=8):
    """Build the memory hierarchy for *design* on *mem*.

    ``scale`` shrinks the paper-size MSHR/subentry structures and
    ``cache_scale`` the cache arrays for simulator-scale graphs (see
    DESIGN.md Section 5).
    """
    return MemoryHierarchy(engine, mem, design, scale=scale,
                           cache_scale=cache_scale, floorplan=floorplan,
                           queue_depth=queue_depth)
