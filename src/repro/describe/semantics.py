"""Shared transition semantics for ARM-family pipeline descriptions.

Before this layer existed every processor model hand-wrote its guard/action
closures; StrongARM and XScale each carried ~400 near-identical lines.  The
:class:`ArmSemantics` object owns those closures once, bound to one
elaborated model and parameterised by the spec's :class:`HazardSpec`
(bypass states, flush sets), fetch discipline and predictor.  Transition
specs reference them by *hook name* (``"alu.issue"``, ``"mem.access"`` ...)
and the elaborator attaches them to the generated transitions.

The hooks reproduce the original hand-wired models' observable behaviour
exactly — the golden-statistics regression test
(``tests/integration/test_golden_stats.py``) pins cycle, instruction and
stall counts captured before the refactor.

Hook catalogue (``guard``/``action`` contribution in parentheses):

========================  =====================================================
``alu.issue`` (g+a)        operand/flag readiness, write reservation, latch
``alu.issue_bypass``(g+a)  Figure 5 restricted ``s1`` bypass arc
``alu.execute`` (a)        compute result/flags, note PC redirects
``alu.writeback`` (a)      architectural writeback, back-end redirect
``mul.issue`` (g+a)        like ``alu.issue`` plus the accumulator operand
``mul.execute`` (a)        early-termination multiply, data-dependent delay
``mul.buffer`` (a)         move result/flags into the destination refs
``mul.writeback`` (a)      architectural writeback
``mem.issue`` (g+a)        address/store-data readiness, load reservation
``mem.agen`` (a)           effective address + base update value
``mem.access`` (a)         cache access delay, stores performed, loads read
``mem.writeback`` (a)      loaded value + updated base written back
``mem.access_combined``(a) Figure 5 single-transition memory access
``mem.writeback_simple``(a) writeback for the combined-access variant
``memm.issue`` (g+a)       block-transfer readiness over the register list
``memm.agen`` (a)          burst address list + base update value
``memm.access`` (a)        per-beat delays, stores performed, loads read
``memm.writeback`` (a)     loaded values written back, PC loads redirect
``branch.taken`` (g+a)     resolved-taken arc (stall-style models)
``branch.not_taken``(g+a)  resolved-not-taken arc (stall-style models)
``branch.resolve`` (g+a)   BTB-predicted resolution with misprediction flush
``branch.decode_fig5``(g+a) Figure 5 decode parking a reservation token
``branch.resolve_fig5``(a) Figure 5 resolution consuming it
``branch.link_writeback``(a) BL link-register writeback
``system.issue`` (g+a)     condition check, HALT/SWI effects
``system.retire`` (a)      syscall side effects, simulation stop
========================  =====================================================
"""

from __future__ import annotations

from collections import namedtuple

from repro.isa.instructions import SystemOp
from repro.describe.substrate import (
    block_transfer_addresses,
    compute_alu,
    compute_memory_address,
    compute_multiply,
    condition_holds,
    operand_read,
    operand_ready,
    operands_ready,
    token_flags_ready,
)

#: A resolved hook: either field may be ``None``.
Hook = namedtuple("Hook", ("guard", "action"))


class ArmSemantics:
    """The shared ARM hook factories, bound to one elaborated model.

    Subclasses may :meth:`register` additional hooks (or override existing
    ones) before the elaborator resolves the spec's transitions; the
    elaborator accepts the class via its ``semantics_class`` argument.
    """

    def __init__(self, spec, net, core, memory, decoder, predictor=None, issue_control=None):
        self.spec = spec
        self.net = net
        self.core = core
        self.memory = memory
        self.decoder = decoder
        self.predictor = predictor
        self.issue_control = issue_control
        #: Places whose pending results the bypass network forwards: every
        #: place whose name or stage name is in ``spec.hazards.forward_states``.
        #: No place exists yet, so :func:`~repro.describe.elaborate.elaborate_net`
        #: fills this set in place once the last place is added (the hooks
        #: capture the set object, not its contents).
        self.forward_states = set()
        self.front_flush_stages = tuple(spec.hazards.front_flush_stages)
        self.redirect_flush_stages = tuple(spec.hazards.redirect_flush_stages)
        self.s1_forward_state = spec.hazards.s1_forward_state
        #: BTB-predicted models recover from alias redirects at issue time.
        self.predict_recovery = spec.predictor.kind == "btb"
        self._hooks = {}
        self._install_hooks()

    # -- registry ------------------------------------------------------------
    def register(self, name, guard=None, action=None):
        self._hooks[name] = Hook(guard, action)

    def hook(self, name):
        try:
            return self._hooks[name]
        except KeyError:
            raise KeyError(
                "unknown semantic hook %r; known hooks: %s"
                % (name, ", ".join(sorted(self._hooks)))
            ) from None

    def resolve(self, hook_names):
        """Combine hooks into one ``(guard, action)`` pair for a transition.

        At most one hook may contribute a guard; actions are chained in the
        order the hooks are listed (the StrongARM model runs issue and
        execute semantics on one transition this way).
        """
        guards = [h.guard for h in map(self.hook, hook_names) if h.guard is not None]
        actions = [h.action for h in map(self.hook, hook_names) if h.action is not None]
        if len(guards) > 1:
            raise ValueError(
                "hooks %r contribute more than one guard" % (tuple(hook_names),)
            )
        guard = guards[0] if guards else None
        if not actions:
            action = None
        elif len(actions) == 1:
            action = actions[0]
        else:
            chain = tuple(actions)

            def action(token, ctx, _chain=chain):
                for act in _chain:
                    act(token, ctx)

        return guard, action

    # -- control-transfer helpers -------------------------------------------
    def front_flush(self, ctx):
        """Squash the front end (taken branch / misprediction / halt)."""
        for stage in self.front_flush_stages:
            ctx.flush_stage(stage)

    def backend_redirect(self, ctx, target, token=None):
        """Redirect fetching after a PC write deep in the pipeline.

        Every instruction younger than the redirecting ``token`` is on the
        wrong path, wherever it got to — including a fetch-stall
        reservation a squashed wrong-path branch already parked — so the
        squash is by program order (:meth:`EngineContext.flush_younger`),
        not by stage.  No static stage set fits every redirect: the BTB
        alias recovery redirects at *issue*, where everything downstream is
        older and must survive, while a PC-writing writeback redirects at
        the *back* of the pipe, where stage-mates may already be younger
        (multi-issue).  ``redirect_flush_stages`` remains the fallback for
        redirects with no originating token.
        """
        if token is not None:
            ctx.flush_younger(token.seq)
        else:
            for stage in self.redirect_flush_stages:
                ctx.flush_stage(stage)
        self.core.redirect(target)

    def _with_recovery(self, action):
        """Prefix an issue action with BTB-alias recovery when predicted."""
        if not self.predict_recovery:
            return action
        backend_redirect = self.backend_redirect

        def recovered(t, ctx, _action=action):
            if t.annotations.get("predicted_taken"):
                # A BTB alias redirected fetch after a non-branch: recover.
                backend_redirect(ctx, (t.pc + 4) & 0xFFFFFFFF, t)
            _action(t, ctx)

        return recovered

    # -- multi-issue gating ---------------------------------------------------
    def issue_gate(self, guard, action, port=None):
        """Wrap a resolved ``(guard, action)`` pair with the issue arbiter.

        The elaborator applies this to every transition leaving the issue
        stage of a multi-issue spec: the guard additionally requires
        :meth:`~repro.describe.substrate.IssueControl.may_issue` and the
        action books the slot via ``note_issue`` before the original
        behaviour runs.  The wrapped guard carries an ``issue_gate`` marker
        (so generation reports can count the gated transitions), plus the
        unwrapped parts (``base_guard``/``base_action``, the arbiter and
        the port) so the source-emitting backend
        (:mod:`repro.codegen`) can specialise the gate away at emit time —
        calling the arbiter and the original hook directly instead of
        through this wrapper.
        """
        control = self.issue_control

        if guard is None:
            def gated_guard(t, ctx):
                return control.may_issue(t, ctx, port)
        else:
            def gated_guard(t, ctx, _guard=guard):
                return control.may_issue(t, ctx, port) and _guard(t, ctx)

        if action is None:
            def gated_action(t, ctx):
                control.note_issue(t, ctx, port)
        else:
            def gated_action(t, ctx, _action=action):
                control.note_issue(t, ctx, port)
                _action(t, ctx)

        gated_guard.issue_gate = True
        gated_guard.base_guard = guard
        gated_guard.control = control
        gated_guard.port = port
        gated_action.issue_gate = True
        gated_action.base_action = action
        gated_action.control = control
        gated_action.port = port
        return gated_guard, gated_action

    def advance_gate(self, guard, source_stage):
        """Wrap a pre-issue transfer guard with the order-preserving rule.

        Applied by the elaborator to every transition of a multi-issue spec
        whose source stage precedes the issue stage on its path; see
        :meth:`~repro.describe.substrate.IssueControl.may_advance`.
        """
        control = self.issue_control

        if guard is None:
            def gated_guard(t, _ctx):
                return control.may_advance(t, source_stage)
        else:
            def gated_guard(t, ctx, _guard=guard):
                return control.may_advance(t, source_stage) and _guard(t, ctx)

        gated_guard.advance_gate = True
        gated_guard.base_guard = guard
        gated_guard.control = control
        gated_guard.stage = source_stage
        return gated_guard

    # -- fetch ---------------------------------------------------------------
    def fetch_hook(self, fetch_spec):
        """The instruction-independent fetch transition's (guard, action)."""
        core = self.core
        memory = self.memory
        decoder = self.decoder
        issue_control = self.issue_control

        if fetch_spec.style == "btb":
            btb = self.predictor

            def fetch_guard(_token, _ctx):
                return not core.halted

            def fetch_action(_token, ctx):
                pc = core.fetch_pc
                hit, predicted_taken, predicted_target = btb.lookup(pc)
                word = memory.read_word(pc)
                token = decoder.decode_word(word, pc=pc)
                token.delay = memory.instruction_delay(pc)
                token.annotations["predicted_taken"] = bool(hit and predicted_taken)
                if hit and predicted_taken:
                    core.redirect(predicted_target)
                else:
                    core.redirect(pc + 4)
                core.sequence += 1
                if issue_control is not None:
                    issue_control.note_fetch(token)
                ctx.emit(token)

            return fetch_guard, fetch_action

        stall_stage = (
            self.net.stage(fetch_spec.stall_stage) if fetch_spec.stall_stage else None
        )

        if stall_stage is None:

            def fetch_guard(_token, _ctx):
                return not core.halted

        else:

            def fetch_guard(_token, _ctx):
                return not core.halted and stall_stage.occupancy == 0

        def fetch_action(_token, ctx):
            pc = core.next_fetch()
            word = memory.read_word(pc)
            token = decoder.decode_word(word, pc=pc)
            token.delay = memory.instruction_delay(pc)
            if issue_control is not None:
                issue_control.note_fetch(token)
            ctx.emit(token)

        return fetch_guard, fetch_action

    # -- hook installation ---------------------------------------------------
    def _install_hooks(self):
        from repro.isa.registers import PC

        FWD = self.forward_states
        core = self.core
        memory = self.memory
        predictor = self.predictor
        net = self.net
        front_flush = self.front_flush
        backend_redirect = self.backend_redirect
        register = self.register
        gpr = net.register_files["gpr"]

        def pc_free():
            """Control interlock: no issue while a PC write is in flight.

            A PC-writing instruction (``mov pc``, load-to-PC) holds a write
            reservation on r15 from issue to writeback; everything fetched
            behind it is wrong-path and will be squashed by the writeback
            redirect.  Blocking younger *issue* until then keeps short-path
            instructions (branch resolution, system ops) from completing —
            or performing side effects — before the redirect reaches them.
            The check is free on PC-write-free code: r15 simply never has a
            pending writer.
            """
            return gpr.writers[PC] is None

        # ---- alu ----------------------------------------------------------
        def alu_issue_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if not operands_ready((t.s1, t.s2), FWD):
                return False
            if not t.d.can_write():
                return False
            if t.writes_flags and not t.fl.can_write():
                return False
            return True

        def alu_issue_action(t, _ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            if not executed:
                return
            operand_read(t.s1, FWD)
            operand_read(t.s2, FWD)
            t.d.reserve_write()
            if t.writes_flags:
                t.fl.reserve_write()

        def alu_execute_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            result, flags = compute_alu(t)
            if result is not None:
                t.d.value = result
            if flags is not None:
                t.fl.value = flags
            if t.writes_pc and result is not None:
                t.annotations["redirect"] = result

        def alu_writeback_action(t, ctx):
            if not t.annotations.get("executed"):
                return
            if t.d.has_value:
                t.d.writeback()
            if t.writes_flags and t.fl.has_value:
                t.fl.writeback()
            if "redirect" in t.annotations:
                backend_redirect(ctx, t.annotations["redirect"], t)

        register("alu.issue", alu_issue_guard, self._with_recovery(alu_issue_action))
        register("alu.execute", action=alu_execute_action)
        register("alu.writeback", action=alu_writeback_action)

        # Figure 5 restricted bypass: only s1, only from one state.
        s1_state = self.s1_forward_state

        def alu_bypass_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if not t.s2.can_read():
                return False
            if not t.d.can_write():
                return False
            if t.writes_flags and not t.fl.can_write():
                return False
            if not t.s1.can_read(s1_state):
                return False
            writer = t.s1.register.writer
            return writer is not None and writer.has_value

        def alu_bypass_action(t, _ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            if not executed:
                return
            t.s1.read(s1_state)
            t.s2.read()
            t.d.reserve_write()
            if t.writes_flags:
                t.fl.reserve_write()

        register("alu.issue_bypass", alu_bypass_guard, alu_bypass_action)

        # ---- mul ----------------------------------------------------------
        def mul_issue_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if not operands_ready((t.s1, t.s2, t.acc), FWD):
                return False
            if not t.d.can_write():
                return False
            if t.writes_flags and not t.fl.can_write():
                return False
            return True

        def mul_issue_action(t, _ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            if not executed:
                return
            operand_read(t.s1, FWD)
            operand_read(t.s2, FWD)
            operand_read(t.acc, FWD)
            t.d.reserve_write()
            if t.writes_flags:
                t.fl.reserve_write()

        def mul_execute_action(t, _ctx):
            # The token delay models the data-dependent latency of the
            # early-termination multiplier.
            if not t.annotations.get("executed"):
                return
            result, flags, cycles = compute_multiply(t)
            t.annotations["result"] = result
            t.annotations["flags"] = flags
            t.delay = cycles

        def mul_buffer_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            t.d.value = t.annotations["result"]
            if t.annotations["flags"] is not None:
                t.fl.value = t.annotations["flags"]

        def mul_writeback_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            t.d.writeback()
            if t.writes_flags and t.fl.has_value:
                t.fl.writeback()

        register("mul.issue", mul_issue_guard, self._with_recovery(mul_issue_action))
        register("mul.execute", action=mul_execute_action)
        register("mul.buffer", action=mul_buffer_action)
        register("mul.writeback", action=mul_writeback_action)

        # ---- mem ----------------------------------------------------------
        def mem_issue_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            sources = [t.base, t.offset]
            if not t.L:
                sources.append(t.r)
            if not operands_ready(sources, FWD):
                return False
            if t.L and not t.r.can_write():
                return False
            if t.updates_base and not t.base.can_write():
                return False
            return True

        def mem_issue_action(t, _ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            if not executed:
                return
            operand_read(t.base, FWD)
            operand_read(t.offset, FWD)
            if t.L:
                t.r.reserve_write()
            else:
                operand_read(t.r, FWD)
            if t.updates_base:
                t.base.reserve_write()

        def mem_agen_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            address, updated = compute_memory_address(t)
            t.annotations["address"] = address
            if t.updates_base:
                # The updated base is an ALU-style result: make it available
                # to dependents through the bypass network right away.
                t.annotations["updated_base"] = updated
                t.base.value = updated

        def mem_access_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            address = t.annotations["address"]
            t.delay = memory.data_delay(address, is_write=not t.L)
            if t.L:
                # Read now, in access order with the stores around it; the
                # value is published at writeback (see mem_writeback_action).
                t.annotations["loaded"] = (
                    memory.read_byte(address) if t.byte else memory.read_word(address)
                )
            else:
                value = t.r.value or 0
                if t.byte:
                    memory.write_byte(address, value & 0xFF)
                else:
                    memory.write_word(address, value)

        def mem_writeback_action(t, ctx):
            if not t.annotations.get("executed"):
                return
            if t.L:
                value = t.annotations["loaded"]
                t.r.value = value
                t.r.writeback()
                if t.writes_pc:
                    backend_redirect(ctx, value, t)
            if t.updates_base:
                t.base.value = t.annotations["updated_base"]
                t.base.writeback()

        register("mem.issue", mem_issue_guard, self._with_recovery(mem_issue_action))
        register("mem.agen", action=mem_agen_action)
        register("mem.access", action=mem_access_action)
        register("mem.writeback", action=mem_writeback_action)

        # Figure 5 variant: one transition performs address generation and
        # the memory access; writeback only publishes the latched values.
        def mem_access_combined_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            address, updated = compute_memory_address(t)
            t.annotations["address"] = address
            t.annotations["updated_base"] = updated
            t.delay = memory.data_delay(address, is_write=not t.L)
            if t.L:
                t.r.value = memory.read_byte(address) if t.byte else memory.read_word(address)
            else:
                value = t.r.value or 0
                if t.byte:
                    memory.write_byte(address, value & 0xFF)
                else:
                    memory.write_word(address, value)

        def mem_writeback_simple_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            if t.L:
                t.r.writeback()
            if t.updates_base:
                t.base.value = t.annotations["updated_base"]
                t.base.writeback()

        register("mem.access_combined", action=mem_access_combined_action)
        register("mem.writeback_simple", action=mem_writeback_simple_action)

        # ---- memm ---------------------------------------------------------
        def memm_issue_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if not operand_ready(t.base, FWD):
                return False
            if t.L:
                if not all(reg.can_write() for reg in t.regs):
                    return False
            else:
                if not operands_ready(t.regs, FWD):
                    return False
            if t.updates_base and not t.base.can_write():
                return False
            return True

        def memm_issue_action(t, _ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            if not executed:
                return
            operand_read(t.base, FWD)
            if t.L:
                for reg in t.regs:
                    reg.reserve_write()
            else:
                for reg in t.regs:
                    operand_read(reg, FWD)
            if t.updates_base:
                t.base.reserve_write()

        def memm_agen_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            addresses, new_base = block_transfer_addresses(t)
            t.annotations["addresses"] = addresses
            if t.updates_base:
                t.annotations["updated_base"] = new_base
                t.base.value = new_base

        def memm_access_action(t, _ctx):
            if not t.annotations.get("executed"):
                return
            addresses = t.annotations["addresses"]
            latency = 0
            for index, address in enumerate(addresses):
                latency += memory.data_delay(address, is_write=not t.L)
                if not t.L:
                    memory.write_word(address, t.regs[index].value or 0)
            if t.L:
                t.annotations["loaded"] = [memory.read_word(address) for address in addresses]
            # One transfer per cycle: the block occupies the memory stage
            # for at least one cycle per register.
            t.delay = max(latency, len(addresses))

        def memm_writeback_action(t, ctx):
            if not t.annotations.get("executed"):
                return
            if t.L:
                redirect = None
                for index, value in enumerate(t.annotations["loaded"]):
                    reg = t.regs[index]
                    reg.value = value
                    reg.writeback()
                    if t.reg_indices[index] == 15:
                        redirect = value
                if redirect is not None:
                    backend_redirect(ctx, redirect, t)
            if t.updates_base:
                t.base.value = t.annotations["updated_base"]
                t.base.writeback()

        register("memm.issue", memm_issue_guard, self._with_recovery(memm_issue_action))
        register("memm.agen", action=memm_agen_action)
        register("memm.access", action=memm_access_action)
        register("memm.writeback", action=memm_writeback_action)

        # ---- branch -------------------------------------------------------
        def branch_taken_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if t.link and not t.lr.can_write():
                return False
            return condition_holds(t, FWD)

        def branch_taken_action(t, ctx):
            t.annotations["executed"] = True
            t.annotations["taken"] = True
            target = (t.pc + 8 + 4 * t.offset.value) & 0xFFFFFFFF
            if predictor is not None:
                predictor.record(t.pc, True)
            front_flush(ctx)
            core.redirect(target)
            if t.link:
                t.lr.reserve_write()
                t.lr.value = (t.pc + 4) & 0xFFFFFFFF

        def branch_not_taken_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if t.link and not t.lr.can_write():
                return False
            return True

        def branch_not_taken_action(t, _ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            t.annotations["taken"] = False
            if predictor is not None:
                predictor.record(t.pc, False)

        def branch_resolve_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if t.link and not t.lr.can_write():
                return False
            return True

        def branch_resolve_action(t, ctx):
            executed = condition_holds(t, FWD)
            taken = executed
            target = (t.pc + 8 + 4 * t.offset.value) & 0xFFFFFFFF
            fallthrough = (t.pc + 4) & 0xFFFFFFFF
            predicted_taken = bool(t.annotations.get("predicted_taken"))
            t.annotations["executed"] = executed
            t.annotations["taken"] = taken

            predictor.record_outcome(predicted_taken, taken)
            predictor.update(t.pc, taken, target)
            mispredicted = predicted_taken != taken
            if mispredicted:
                front_flush(ctx)
                core.redirect(target if taken else fallthrough)
            if taken and t.link:
                t.lr.reserve_write()
                t.lr.value = (t.pc + 4) & 0xFFFFFFFF

        def branch_decode_fig5_guard(t, _ctx):
            if not pc_free():
                return False
            if not token_flags_ready(t, FWD):
                return False
            if t.link and not t.lr.can_write():
                return False
            return True

        def branch_decode_fig5_action(t, _ctx):
            taken = condition_holds(t, FWD)
            t.annotations["executed"] = True
            t.annotations["taken"] = taken
            if taken and t.link:
                t.lr.reserve_write()
                t.lr.value = (t.pc + 4) & 0xFFFFFFFF

        def branch_resolve_fig5_action(t, ctx):
            if t.annotations.get("taken"):
                target = (t.pc + 8 + 4 * t.offset.value) & 0xFFFFFFFF
                front_flush(ctx)
                core.redirect(target)
                if t.link:
                    t.lr.writeback()

        def branch_link_writeback_action(t, _ctx):
            if t.annotations.get("taken") and t.link:
                t.lr.writeback()

        register("branch.taken", branch_taken_guard, branch_taken_action)
        register("branch.not_taken", branch_not_taken_guard, branch_not_taken_action)
        register("branch.resolve", branch_resolve_guard, branch_resolve_action)
        register("branch.decode_fig5", branch_decode_fig5_guard, branch_decode_fig5_action)
        register("branch.resolve_fig5", action=branch_resolve_fig5_action)
        register("branch.link_writeback", action=branch_link_writeback_action)

        # ---- system -------------------------------------------------------
        def system_issue_guard(t, _ctx):
            return pc_free() and token_flags_ready(t, FWD)

        def system_issue_action(t, ctx):
            executed = condition_holds(t, FWD)
            t.annotations["executed"] = executed
            if not executed:
                return
            if t.op == SystemOp.HALT:
                core.halt()
                front_flush(ctx)
                t.annotations["halt"] = True
            elif t.op == SystemOp.SWI:
                t.annotations["syscall"] = t.imm

        def system_retire_action(t, ctx):
            if not t.annotations.get("executed"):
                return
            if t.annotations.get("syscall") == 1:
                output = getattr(core, "output", None)
                if output is None:
                    core.output = output = []
                output.append(net.register_files["gpr"].data[0])
            if t.annotations.get("halt"):
                ctx.stop("halt")

        register("system.issue", system_issue_guard, self._with_recovery(system_issue_action))
        register("system.retire", action=system_retire_action)
