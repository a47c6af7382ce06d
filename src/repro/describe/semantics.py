"""Shared transition semantics for ARM-family pipeline descriptions.

Before this layer existed every processor model hand-wrote its guard/action
closures; StrongARM and XScale each carried ~400 near-identical lines.  The
:class:`ArmSemantics` object owns those hooks once, bound to one elaborated
model and parameterised by the spec's :class:`HazardSpec` (bypass states,
flush sets), fetch discipline and predictor.  Transition specs reference
them by *hook name* (``"alu.issue"``, ``"mem.access"`` ...) and the
elaborator attaches them to the generated transitions.

Every hook is a source template (:class:`~repro.describe.templates.
HookTemplate`) in :data:`HOOK_TEMPLATES` and :data:`FETCH_TEMPLATES`: a
guard expression and an action block over the token ``t``, ``ctx`` and
the model's named constants, with the register-hazard protocol and the
fetch path's services written as fragments
(:mod:`repro.describe.templates`).  The interpreted engine runs each
template as a closure (exec'd once per distinct template content in a
process, bound once per model); the generated engine splices the same
text into its cycle loop, except for the templates marked
``inline=False``, whose closures it calls.  A plain callable passed to
:meth:`ArmSemantics.register` — by a subclass, or a wrapper around a
template's closure — is called, never spliced.

A template is known by its content, not its key: the templates a model
derives (a composed action chain, the BTB recovery prefix, a multi-issue
gate) are built anew on every build and share their compiled closures
with every equal template built before.  So a subclass that registers
its own template under a built-in hook's name — ``register("mem.agen",
*bind(HookTemplate("mem.agen", action=...), self.env))`` — runs its text
on both backends, in every chain and gate it enters, whatever model was
built before it in the process.

The substrate helpers the templates call (``compute_alu``,
``operands_ready`` ...) are looked up in this module when a model is
built, so a rebinding of one of these names made before the build is what
both renderings call.

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

On BTB-predicted models the five issue hooks marked in
:data:`RECOVERED_HOOKS` run :data:`RECOVERY` first: a BTB alias that
redirected fetch after a non-branch is undone at issue.  The multi-issue
gates are not hooks but schedule data
(:func:`repro.core.scheduler.issue_plan`).
"""

from __future__ import annotations

from collections import namedtuple

from repro.describe.templates import HookTemplate, bind, compose, template_of
from repro.isa.conditions import _TRUTH
from repro.isa.instructions import SystemOp
from repro.describe.substrate import (
    block_transfer_addresses,
    compute_alu,
    compute_memory_address,
    compute_multiply,
    operand_read,
    operands_ready,
)

# The hooks no longer call these helpers (their steps are template
# fragments), but perfbench/layers.py rebinds them here by name.
from repro.describe.substrate import condition_holds, operand_ready, token_flags_ready  # noqa: F401

#: A resolved hook: either field may be ``None``.
Hook = namedtuple("Hook", ("guard", "action"))

# ---------------------------------------------------------------------------
# The hook templates
# ---------------------------------------------------------------------------
#
# ``inline=False`` marks the hooks the generated engine calls instead of
# splicing.  Their transitions fire rarely on the benchmark workloads
# (at seed 7919: mul 3.7% of fig10 firings and none on small-cache,
# system under 0.02%, block transfers and the Figure 5 variants none),
# while splicing them too grew the emitted modules enough to put fig10's
# peak RSS 3.1-3.7% above version 1.19.0's (no templates) in three
# interleaved perfbench pairs, past the benchmark's 3% bound
# (EXPERIMENTS.md).
#
# Guards are one expression; ``@pc_free()`` is the control interlock every
# issue guard starts with: no issue while a PC write is in flight.  A
# PC-writing instruction (``mov pc``, load-to-PC) holds a write reservation
# on r15 from issue to writeback; everything fetched behind it is
# wrong-path and will be squashed by the writeback redirect.  Blocking
# younger *issue* until then keeps short-path instructions (branch
# resolution, system ops) from completing — or performing side effects —
# before the redirect reaches them.  The check is free on PC-write-free
# code: r15 simply never has a pending writer.

_ISSUE_ACTION = """
@condition(_e)
t.annotations["executed"] = _e
if _e:
{reads}
    @reserve_write(t.d)
    if t.writes_flags:
        @reserve_write(t.fl)
"""

_MEMORY_ACCESS = """
    @data_delay(t.delay_override, _a, not t.L)
    if t.L:
        {load}
    else:
        _v = t.r._value or 0
        if t.byte:
            MEMORY.write_byte(_a, _v & 0xFF)
        else:
            MEMORY.write_word(_a, _v)
"""

_LINK = """
    @reserve_write(t.lr)
    @set_value(t.lr, (t.pc + 4) & 0xFFFFFFFF)
"""

_TARGET = "_b = (t.pc + 8 + 4 * t.offset._value) & 0xFFFFFFFF"

_BRANCH_GUARD = "@pc_free() and @flags_ready() and (not t.link or @can_write(t.lr))"

_HOOKS = (
    # ---- alu ----------------------------------------------------------
    HookTemplate(
        "alu.issue",
        guard="""
            @pc_free() and @flags_ready() and @ready(t.s1) and @ready(t.s2)
            and @can_write(t.d) and (not t.writes_flags or @can_write(t.fl))
        """,
        action=_ISSUE_ACTION.format(reads="    @read(t.s1)\n    @read(t.s2)"),
    ),
    HookTemplate(
        "alu.execute",
        action="""
if t.annotations.get("executed"):
    _v, _f = COMPUTE_ALU(t)
    if _v is not None:
        @set_value(t.d, _v)
    if _f is not None:
        @set_value(t.fl, _f)
    if t.writes_pc and _v is not None:
        t.annotations["redirect"] = _v
""",
    ),
    HookTemplate(
        "alu.writeback",
        action="""
if t.annotations.get("executed"):
    if @has_value(t.d):
        @writeback(t.d)
    if t.writes_flags and @has_value(t.fl):
        @writeback(t.fl)
    if "redirect" in t.annotations:
        BACKEND_REDIRECT(ctx, t.annotations["redirect"], t)
""",
    ),
    # Figure 5 restricted bypass: only s1, only from one state.
    HookTemplate(
        "alu.issue_bypass",
        guard="""
            @pc_free() and @flags_ready() and @can_read(t.s2) and @can_write(t.d)
            and (not t.writes_flags or @can_write(t.fl)) and t.s1.can_read(S1_STATE)
            and (_w := t.s1.register.writer) is not None and _w.has_value
        """,
        action=_ISSUE_ACTION.format(reads="    t.s1.read(S1_STATE)\n    t.s2.read()"),
        inline=False,
    ),
    # ---- mul ----------------------------------------------------------
    HookTemplate(
        "mul.issue",
        guard="""
            @pc_free() and @flags_ready() and @ready(t.s1) and @ready(t.s2)
            and @ready(t.acc) and @can_write(t.d) and (not t.writes_flags or @can_write(t.fl))
        """,
        action=_ISSUE_ACTION.format(
            reads="    @read(t.s1)\n    @read(t.s2)\n    @read(t.acc)"
        ),
        inline=False,
    ),
    # The token delay models the data-dependent latency of the
    # early-termination multiplier.
    HookTemplate(
        "mul.execute",
        action="""
if t.annotations.get("executed"):
    _v, _f, t.delay_override = COMPUTE_MULTIPLY(t)
    t.annotations["result"] = _v
    t.annotations["flags"] = _f
""",
        inline=False,
    ),
    HookTemplate(
        "mul.buffer",
        action="""
if t.annotations.get("executed"):
    @set_value(t.d, t.annotations["result"])
    if t.annotations["flags"] is not None:
        @set_value(t.fl, t.annotations["flags"])
""",
        inline=False,
    ),
    HookTemplate(
        "mul.writeback",
        action="""
if t.annotations.get("executed"):
    @writeback(t.d)
    if t.writes_flags and @has_value(t.fl):
        @writeback(t.fl)
""",
        inline=False,
    ),
    # ---- mem ----------------------------------------------------------
    HookTemplate(
        "mem.issue",
        guard="""
            @pc_free() and @flags_ready() and @ready(t.base) and @ready(t.offset)
            and (t.L or @ready(t.r)) and (not t.L or @can_write(t.r))
            and (not t.updates_base or @can_write(t.base))
        """,
        action="""
@condition(_e)
t.annotations["executed"] = _e
if _e:
    @read(t.base)
    @read(t.offset)
    if t.L:
        @reserve_write(t.r)
    else:
        @read(t.r)
    if t.updates_base:
        @reserve_write(t.base)
""",
    ),
    HookTemplate(
        "mem.agen",
        action="""
if t.annotations.get("executed"):
    _a, _u = COMPUTE_MEMORY_ADDRESS(t)
    t.annotations["address"] = _a
    if t.updates_base:
        # The updated base is an ALU-style result: make it available
        # to dependents through the bypass network right away.
        t.annotations["updated_base"] = _u
        @set_value(t.base, _u)
""",
    ),
    # Loads read now, in access order with the stores around them; the
    # value is published at writeback.
    HookTemplate(
        "mem.access",
        action="""
if t.annotations.get("executed"):
    _a = t.annotations["address"]""" + _MEMORY_ACCESS.format(
            load='t.annotations["loaded"] = MEMORY.read_byte(_a) if t.byte else MEMORY.read_word(_a)'
        ),
    ),
    HookTemplate(
        "mem.writeback",
        action="""
if t.annotations.get("executed"):
    if t.L:
        _v = t.annotations["loaded"]
        @set_value(t.r, _v)
        @writeback(t.r)
        if t.writes_pc:
            BACKEND_REDIRECT(ctx, _v, t)
    if t.updates_base:
        @set_value(t.base, t.annotations["updated_base"])
        @writeback(t.base)
""",
    ),
    # Figure 5 variant: one transition performs address generation and
    # the memory access; writeback only publishes the latched values.
    HookTemplate(
        "mem.access_combined",
        action="""
if t.annotations.get("executed"):
    _a, _u = COMPUTE_MEMORY_ADDRESS(t)
    t.annotations["address"] = _a
    t.annotations["updated_base"] = _u""" + _MEMORY_ACCESS.format(
            load="@set_value(t.r, MEMORY.read_byte(_a) if t.byte else MEMORY.read_word(_a))"
        ),
        inline=False,
    ),
    HookTemplate(
        "mem.writeback_simple",
        action="""
if t.annotations.get("executed"):
    if t.L:
        @writeback(t.r)
    if t.updates_base:
        @set_value(t.base, t.annotations["updated_base"])
        @writeback(t.base)
""",
        inline=False,
    ),
    # ---- memm ---------------------------------------------------------
    HookTemplate(
        "memm.issue",
        guard="""
            @pc_free() and @flags_ready() and @ready(t.base)
            and (all(_x.can_write() for _x in t.regs) if t.L else OPERANDS_READY(t.regs, FWD))
            and (not t.updates_base or @can_write(t.base))
        """,
        action="""
@condition(_e)
t.annotations["executed"] = _e
if _e:
    @read(t.base)
    if t.L:
        for _x in t.regs:
            @reserve_write(_x)
    else:
        for _x in t.regs:
            @read(_x)
    if t.updates_base:
        @reserve_write(t.base)
""",
        inline=False,
    ),
    HookTemplate(
        "memm.agen",
        action="""
if t.annotations.get("executed"):
    _a, _u = BLOCK_ADDRESSES(t)
    t.annotations["addresses"] = _a
    if t.updates_base:
        t.annotations["updated_base"] = _u
        @set_value(t.base, _u)
""",
        inline=False,
    ),
    # One transfer per cycle: the block occupies the memory stage for at
    # least one cycle per register.
    HookTemplate(
        "memm.access",
        action="""
if t.annotations.get("executed"):
    _a = t.annotations["addresses"]
    _v = 0
    for _i, _u in enumerate(_a):
        _v += MEMORY.data_delay(_u, is_write=not t.L)
        if not t.L:
            MEMORY.write_word(_u, t.regs[_i]._value or 0)
    if t.L:
        t.annotations["loaded"] = [MEMORY.read_word(_u) for _u in _a]
    t.delay_override = max(_v, len(_a))
""",
        inline=False,
    ),
    HookTemplate(
        "memm.writeback",
        action="""
if t.annotations.get("executed"):
    if t.L:
        _a = None
        for _i, _v in enumerate(t.annotations["loaded"]):
            _x = t.regs[_i]
            @set_value(_x, _v)
            @writeback(_x)
            if t.reg_indices[_i] == 15:
                _a = _v
        if _a is not None:
            BACKEND_REDIRECT(ctx, _a, t)
    if t.updates_base:
        @set_value(t.base, t.annotations["updated_base"])
        @writeback(t.base)
""",
        inline=False,
    ),
    # ---- branch -------------------------------------------------------
    HookTemplate(
        "branch.taken",
        guard=_BRANCH_GUARD
        + " and (not t.reads_flags or COND_TRUTH[t.cond][OPERAND_READ(t.fl, FWD)])",
        action="""
t.annotations["executed"] = True
t.annotations["taken"] = True
""" + _TARGET + """
if PREDICTOR is not None:
    PREDICTOR.record(t.pc, True)
FRONT_FLUSH(ctx)
CORE.fetch_pc = _b
if t.link:""" + _LINK,
    ),
    HookTemplate(
        "branch.not_taken",
        guard=_BRANCH_GUARD,
        action="""
@condition(_e)
t.annotations["executed"] = _e
t.annotations["taken"] = False
if PREDICTOR is not None:
    PREDICTOR.record(t.pc, False)
""",
    ),
    HookTemplate(
        "branch.resolve",
        guard=_BRANCH_GUARD,
        action="""
@condition(_e)
""" + _TARGET + """
_x = bool(t.annotations.get("predicted_taken"))
t.annotations["executed"] = _e
t.annotations["taken"] = _e
PREDICTOR.record_outcome(_x, _e)
PREDICTOR.update(t.pc, _e, _b)
if _x != _e:
    FRONT_FLUSH(ctx)
    CORE.fetch_pc = _b if _e else (t.pc + 4) & 0xFFFFFFFF
if _e and t.link:""" + _LINK,
    ),
    HookTemplate(
        "branch.decode_fig5",
        guard=_BRANCH_GUARD,
        action="""
@condition(_e)
t.annotations["executed"] = True
t.annotations["taken"] = _e
if _e and t.link:""" + _LINK,
        inline=False,
    ),
    HookTemplate(
        "branch.resolve_fig5",
        action="""
if t.annotations.get("taken"):
    """ + _TARGET + """
    FRONT_FLUSH(ctx)
    CORE.fetch_pc = _b
    if t.link:
        @writeback(t.lr)
""",
        inline=False,
    ),
    HookTemplate(
        "branch.link_writeback",
        action="""
if t.annotations.get("taken") and t.link:
    @writeback(t.lr)
""",
    ),
    # ---- system -------------------------------------------------------
    HookTemplate(
        "system.issue",
        guard="@pc_free() and @flags_ready()",
        action="""
@condition(_e)
t.annotations["executed"] = _e
if _e:
    if t.op == SYSTEM_HALT:
        CORE.halted = True
        FRONT_FLUSH(ctx)
        t.annotations["halt"] = True
    elif t.op == SYSTEM_SWI:
        t.annotations["syscall"] = t.imm
""",
        inline=False,
    ),
    HookTemplate(
        "system.retire",
        action="""
if t.annotations.get("executed"):
    if t.annotations.get("syscall") == 1:
        CORE.output.append(GPR.data[0])
    if t.annotations.get("halt"):
        ctx.stop("halt")
""",
        inline=False,
    ),
)

#: Every class hook's template, by hook name.
HOOK_TEMPLATES = {template.key: template for template in _HOOKS}

#: The issue hooks a BTB-predicted model prefixes with :data:`RECOVERY`.
RECOVERED_HOOKS = ("alu.issue", "mul.issue", "mem.issue", "memm.issue", "system.issue")

#: BTB-alias recovery: a BTB alias redirected fetch after a non-branch.
RECOVERY = """
if t.annotations.get("predicted_taken"):
    BACKEND_REDIRECT(ctx, (t.pc + 4) & 0xFFFFFFFF, t)
"""

_FETCH = """
@read_word(_w, _p)
@decode(_x, _w, _p)
@fetch_delay(_l, _p)
"""

# The fetched token enters its class's entry place, residing there for the
# L1I latency ``_l``.
_DELIVER = """
@note_fetch(_x)
@emit(_x, _l)
"""

#: The instruction-independent fetch transition, by fetch style.
FETCH_TEMPLATES = {
    "sequential": HookTemplate(
        "fetch.sequential",
        guard="not CORE.halted and @stall_free()",
        action="""
_p = CORE.fetch_pc
CORE.fetch_pc = (_p + 4) & 0xFFFFFFFF""" + _FETCH + _DELIVER,
    ),
    "btb": HookTemplate(
        "fetch.btb",
        guard="not CORE.halted",
        action="""
_p = CORE.fetch_pc
@btb_lookup(_f, _b, _p)""" + _FETCH + """
_x.annotations["predicted_taken"] = _f
CORE.fetch_pc = (_b if _f else _p + 4) & 0xFFFFFFFF""" + _DELIVER,
    ),
}



class ArmSemantics:
    """The shared ARM hooks, bound to one elaborated model.

    Subclasses may :meth:`register` additional hooks (or override existing
    ones) before the elaborator resolves the spec's transitions; the
    elaborator accepts the class via its ``semantics_class`` argument.
    ``env`` holds the named constants the hook templates read.
    """

    def __init__(self, spec, net, core, memory, decoder, predictor=None, issue_control=None):
        self.spec = spec
        self.net = net
        self.core = core
        self.memory = memory
        self.decoder = decoder
        self.predictor = predictor
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
        #: The named constants the templates read, helpers included (looked
        #: up now, see the module docstring).  Kept by the net too: the
        #: emitter binds a spliced module's constants from it after
        #: elaboration has dropped this object.
        self.env = net.hook_env = dict(
            COND_TRUTH=_TRUTH,
            COMPUTE_ALU=compute_alu,
            COMPUTE_MULTIPLY=compute_multiply,
            COMPUTE_MEMORY_ADDRESS=compute_memory_address,
            BLOCK_ADDRESSES=block_transfer_addresses,
            OPERAND_READ=operand_read,
            OPERANDS_READY=operands_ready,
            SYSTEM_HALT=SystemOp.HALT,
            SYSTEM_SWI=SystemOp.SWI,
            FWD=self.forward_states,
            GPR=net.register_files["gpr"],
            CORE=core,
            MEMORY=memory,
            MAIN=memory.memory,
            DECODER=decoder,
            PREDICTOR=predictor,
            ISSUE_CONTROL=issue_control,
            S1_STATE=self.s1_forward_state,
            STALL_STAGE=None,
            FRONT_FLUSH=self.front_flush,
            BACKEND_REDIRECT=self.backend_redirect,
        )
        self._hooks = {}
        self._install_hooks()

    def _install_hooks(self):
        for name, template in HOOK_TEMPLATES.items():
            if self.predict_recovery and name in RECOVERED_HOOKS:
                template = template.prefixed(name + "/recovery", RECOVERY)
            self.register(name, *bind(template, self.env))

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
        execute semantics on one transition this way).  Template actions
        chain into one composed template, so the chain stays spliceable.
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
        elif all(template_of(act, self.env) for act in actions):
            action = bind(compose(template_of(act, self.env) for act in actions), self.env)[1]
        else:
            chain = tuple(actions)

            def action(token, ctx, _chain=chain):
                for act in _chain:
                    act(token, ctx)

        return guard, action

    # -- fetch ---------------------------------------------------------------
    def fetch_hook(self, fetch_spec):
        """The instruction-independent fetch transition's (guard, action)."""
        template = FETCH_TEMPLATES["btb" if fetch_spec.style == "btb" else "sequential"]
        if fetch_spec.style != "btb" and fetch_spec.stall_stage:
            self.env["STALL_STAGE"] = self.net.stage(fetch_spec.stall_stage)
        return bind(template, self.env)

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
