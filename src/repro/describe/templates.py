"""Source templates of the semantic hooks, and the two ways they run.

Every built-in hook of :class:`~repro.describe.semantics.ArmSemantics` is
written once, as a :class:`HookTemplate`: a guard *expression* and an
action *statement block* over the token ``t``, the engine context ``ctx``
and upper-case named constants (``FWD``, ``GPR``, ``CORE``, ``MEMORY``,
``COMPUTE_ALU`` ...) that one model binds in its *env*, a plain dict.
Templates never ``return``, so a block can be pasted anywhere a statement
fits.

The register-hazard protocol and the fetch path's services are template
*fragments*, written ``@name(args)`` and expanded when a template is
rendered:

* expressions, expanded inline — ``@pc_free()``, ``@flags_ready()``,
  ``@ready(x)``, ``@can_read(x)``, ``@can_write(x)``, ``@has_value(x)``;
* the fetch path's services, expanded inline (each a line of its own) —
  ``@decode(var, word, pc)`` (decode-cache hit, recycling a retired
  token of the word when one is free), ``@read_word(var, addr)``,
  ``@fetch_delay(var, addr)`` and ``@data_delay(var, addr, is_write)``
  (L1 hit: counters and LRU order), ``@set_value(x, v)`` and
  ``@emit(token)``;
* the protocol's effects — ``@read(x)``, ``@condition(var)``,
  ``@reserve_write(x)``, ``@writeback(x)`` — each one call:
  ``operand_read`` or the RegRef method, whose checks raise as before.
  Expanding these inline too doubled the emitted module's size, and with
  it its compile time and peak memory; guards run on every attempt, the
  effects once per instruction.

Each inline fragment keeps the checks of the code it replaces and falls
back to the method for everything off its fast path (a decode-cache
miss, an L1 miss, an attached cache trace, perfect caches).

A template runs in one of two renderings:

* ``"closure"`` — :func:`bind` turns it into a ``(guard, action)`` pair of
  closures over one model's constants.  The source is ``exec``'d once per
  process (:data:`COMPILES` counts it) and the resulting factory is called
  once per model; the interpreted engine calls the closures.
* ``"splice"`` — :mod:`repro.codegen.emit` pastes the rendering into the
  transition sites of the emitted cycle loop, where ``@emit`` delivers the
  fetched token straight into its entry place instead of queueing it.

The emitter splices only closures :func:`bind` made over the net's own
constants, recognised by their code object (:func:`template_of`): a wrapper
— even one that copies the closure's attributes, like
:func:`functools.update_wrapper` — or a plain callable registered by a
subclass is called, never spliced.
"""

from __future__ import annotations

import re
from collections import namedtuple

from repro.isa.registers import PC

#: Names of the emitted cycle loop's own state; a template temporary may
#: not reuse one (the splice would clobber it).
RESERVED_NAMES = frozenset((
    "cycle", "cycle0", "idle0", "stats", "tf", "rbc", "fired", "limit", "engine",
    "pool", "deposit", "entry_places", "entry_place_for", "trace_token",
    "stalls", "instructions", "generated_tokens", "_oc", "_d", "_r", "_n",
    "_stalls", "_hc", "_tm",
))

#: The loop's indexed names: run-local counters (``tf3``, ``rbc0``), place
#: token lists (``p3t``, ``p3p``) and the bound places, stages and hooks.
RESERVED_INDEXED = re.compile(r"(?:tf|rbc|[psga])\d+[tp]?|hc[ga]\d+")

_NAME = re.compile(r"\b[A-Za-z_]\w*\b")
_STATEMENT = re.compile(r"^(\s*)@(\w+)\((.*)\)\s*$")
_EXPRESSION = re.compile(r"@(\w+)\(([^()]*)\)")


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------

def _ready(x):
    return (
        "((_g := (_o := %s).register) is None"
        " or (_w := _g.regfile.writers[_g.index]) is None or _w is _o"
        " or ((_k := _w.token) is not None and _k.place in FWD and _w._has_value))" % x
    )


def _can_write(x):
    return (
        "((_g := (_o := %s).register) is None"
        " or (_w := _g.regfile.writers[_g.index]) is None or _w is _o)" % x
    )


_EXPRESSION_FRAGMENTS = {
    "pc_free": lambda: "GPR.writers[%d] is None" % PC,
    "flags_ready": lambda: "(not t.reads_flags or %s)" % _ready("t.fl"),
    "ready": _ready,
    # RegRef.can_read() without a state is the can_write() test.
    "can_read": _can_write,
    "can_write": _can_write,
    "has_value": lambda x: "((_o := %s).register is None or _o._has_value)" % x,
}


def _read(x):
    return "OPERAND_READ(%s, FWD)" % x


def _condition(var):
    return "%s = not t.reads_flags or COND_TRUTH[t.cond][OPERAND_READ(t.fl, FWD)]" % var


def _reserve_write(x):
    return "%s.reserve_write()" % x


def _writeback(x):
    return "%s.writeback()" % x


def _set_value(x, value):
    return f"""
_o = {x}
_o._value = {value}
_o._has_value = True
"""


def _decode(var, word, pc):
    # InstructionDecoder.decode_word's cache hit, inline: a free-listed
    # retired token of the word is renewed, else a new one made.
    return f"""
_dc = DECODER._cache.get({word})
if _dc is None:
    {var} = DECODER.decode_word({word}, pc={pc})
else:
    DECODER.hits += 1
    _df = _dc.free
    if _df:
        {var} = _dc.renew(_df.pop(), {pc}, next(DECODER._sequence))
    else:
        {var} = _dc.make(_dc, {pc}, next(DECODER._sequence))
"""


def _read_word(var, address):
    # MemorySystem.read_word -> MainMemory.read_word, inline.
    return f"""
MAIN.read_count += 1
{var} = MAIN._words.get({address} & 0xFFFFFFFC, MAIN.default_value)
"""


def _cache_hit(cache, var, address, touch, miss):
    # Cache.access's hit path (counters, LRU order); the method otherwise.
    return f"""
_cc = MEMORY.{cache}
if _cc.trace is not None:
    {var} = {miss}
else:
    _ln = {address} // _cc.line_bytes
    _cl = _cc._sets[_ln % _cc.set_count].lines
    _ct = _ln // _cc.set_count
    if _ct in _cl:
        _cs = _cc.stats
        _cs.accesses += 1
        _cs.hits += 1
{touch}
        {var} = _cc.config.hit_latency
    else:
        {var} = {miss}
"""


def _fetch_delay(var, address):
    return _cache_hit(
        "icache", var, address,
        "        _cl[_ct] = _cl.pop(_ct)",
        "MEMORY.instruction_delay(%s)" % address,
    )


def _data_delay(var, address, is_write):
    touch = (
        f"        if {is_write}:\n"
        "            del _cl[_ct]\n"
        "            _cl[_ct] = True\n"
        "        else:\n"
        "            _cl[_ct] = _cl.pop(_ct)"
    )
    return _cache_hit(
        "dcache", var, address, touch,
        "MEMORY.data_delay(%s, is_write=%s)" % (address, is_write),
    )


def _emit_queued(token):
    return "ctx.emit(%s)" % token


def _emit_delivered(token, delay):
    # SimulationEngine.queue_emission + deliver_emissions' Place.deposit as
    # field operations, for an emission routed by operation class.
    return f"""
_ep = entry_places.get({token}.opclass)
if _ep is None:
    _ep = entry_place_for({token}.opclass)
if trace_token is not None:
    trace_token(cycle, {token}, None)
generated_tokens += 1
_es = _ep.stage
if _es.capacity is None or _es._occupancy >= _es.capacity:
    deposit({token}, _ep, {delay})
else:
    _er = {token}.delay_override
    if _er is None:
        _er = _ep.delay
    else:
        {token}.delay_override = None
    {token}.ready_cycle = cycle + {delay} + _er
    {token}.place = _ep
    _es._occupancy += 1
    if _ep.two_list:
        _ep.pending.append({token})
    else:
        _ep.tokens.append({token})
"""


_STATEMENT_FRAGMENTS = {
    "read": _read,
    "condition": _condition,
    "reserve_write": _reserve_write,
    "writeback": _writeback,
    "set_value": _set_value,
    "decode": _decode,
    "read_word": _read_word,
    "fetch_delay": _fetch_delay,
    "data_delay": _data_delay,
}


def _split_args(text):
    """Split a fragment's argument list at its top-level commas."""
    args, depth, current = [], 0, []
    for char in text:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if "".join(current).strip():
        args.append("".join(current).strip())
    return args


def _expand_expression(text):
    def replace(match):
        return _EXPRESSION_FRAGMENTS[match.group(1)](*_split_args(match.group(2)))

    return _EXPRESSION.sub(replace, text)


def _expand_block(text, emit):
    """The statement lines of ``text`` with every fragment expanded."""
    lines = []
    for line in text.splitlines():
        if not line.strip():
            continue
        match = _STATEMENT.match(line)
        if match is None:
            lines.append(_expand_expression(line))
            continue
        indent, name, args = match.groups()
        fragment = emit if name == "emit" else _STATEMENT_FRAGMENTS[name]
        for inner in _expand_block(fragment(*_split_args(args)), emit):
            lines.append(indent + inner)
    return lines


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

class HookTemplate:
    """One hook as source: a guard expression and/or an action block.

    ``key`` names the template in structure digests (a composed template's
    key joins its parts' keys with ``+``).  ``writes_delay`` and ``emits``
    are what the emitter may assume about the action: it writes ``t.delay``
    (the token's ``delay_override``) only if ``writes_delay``, and emits a
    token (routed by operation class) only if ``emits``.  ``inline=False``
    keeps the emitter calling the template's closure instead of splicing
    it (see :mod:`repro.describe.semantics` for which hooks, and why).
    """

    __slots__ = ("key", "guard", "action", "inline", "factory", "renderings", "reads_stats")

    def __init__(self, key, guard=None, action=None, inline=True):
        self.key = key
        self.inline = inline
        #: The closure factory and the renderings, made on first use.
        self.factory = None
        self.renderings = {}
        self.guard = " ".join(line.strip() for line in guard.splitlines()).strip() if guard else None
        self.action = action.strip("\n") if action and action.strip() else None
        #: True when the source names ``stats`` (``ctx.stats``, say).
        self.reads_stats = "stats" in _NAME.findall("%s\n%s" % (self.guard or "", self.action or ""))

    @property
    def writes_delay(self):
        return self.action is not None and "t.delay_override" in self.action

    @property
    def emits(self):
        return self.action is not None and "@emit(" in self.action

    def prefixed(self, key, prefix=None, guard=None):
        """This template with ``prefix`` run before its action and ``guard``
        tested before its guard."""
        if guard is None:
            guard = self.guard
        elif self.guard is not None:
            guard = "%s and (%s)" % (guard, self.guard)
        action = self.action
        if prefix is not None:
            action = prefix.strip("\n") + "\n" + (action or "")
        return HookTemplate(key, guard, action, self.inline)

    def __repr__(self):
        return "<HookTemplate %s>" % self.key


def compose(templates):
    """One action-only template running ``templates``' actions in order."""
    templates = tuple(templates)
    key = "+".join(template.key for template in templates)
    cached = _COMPOSED.get(key)
    if cached is None:
        action = "\n".join(template.action for template in templates if template.action)
        inline = all(template.inline for template in templates)
        cached = _COMPOSED[key] = HookTemplate(key, action=action, inline=inline)
    return cached


_COMPOSED = {}


#: One rendering of a template: the guard expression and action lines
#: (``None`` when absent) and the identifiers each reads.
Rendering = namedtuple("Rendering", ("guard", "action", "guard_names", "action_names"))


def render(template, mode, delay=0):
    """The :data:`Rendering` of ``template`` in ``mode``.

    ``mode`` is ``"closure"`` or ``"splice"``; ``delay`` is the firing
    transition's delay, which only a spliced ``@emit`` reads.  Memoised on
    the template.  The closure rendering, which is the template's own text,
    is checked for temporaries that would clobber the loop's state; the
    spliced ``@emit`` is the loop's own code and updates its counter.
    """
    rendering = template.renderings.get((mode, delay))
    if rendering is None:
        if mode == "closure":
            emit = _emit_queued
        else:
            render(template, "closure")

            def emit(token):
                return _emit_delivered(token, delay)
        guard = _expand_expression(template.guard) if template.guard else None
        action = _expand_block(template.action, emit) if template.action else None
        guard_names = frozenset(_NAME.findall(guard or ""))
        action_text = "\n".join(action or ())
        action_names = frozenset(_NAME.findall(action_text))
        clashes = mode == "closure" and sorted(
            name for name in guard_names | action_names
            if (name in RESERVED_NAMES or RESERVED_INDEXED.fullmatch(name))
            and re.search(r"\b%s\s*(?::=|=(?!=)|\+=|-=)" % re.escape(name), action_text + (guard or ""))
        )
        if clashes:
            raise ValueError(
                "template %s: temporaries %s clash with the emitted loop's state" % (template.key, clashes)
            )
        rendering = template.renderings[mode, delay] = Rendering(guard, action, guard_names, action_names)
    return rendering


def names_used(names, env):
    """The constants of ``env`` among ``names``, sorted."""
    return tuple(sorted(name for name in env if name in names))


# ---------------------------------------------------------------------------
# Closure rendering
# ---------------------------------------------------------------------------

#: Templates ``exec``'d into closure factories so far in this process.
COMPILES = 0

#: code object -> template, for every closure body compiled so far.
_TEMPLATE_CODES = {}

_MISSING = object()


def _factory(template, env):
    """``template``'s closure factory, compiled on first use.

    The factory binds every constant the template reads as ``NAME =
    env[NAME]``, so the closures see the values ``env`` holds when the
    model is built; the names are those of the first ``env`` (every model
    binds the same ones).
    """
    global COMPILES
    if template.factory is not None:
        return template.factory
    guard, action, guard_names, action_names = render(template, "closure")
    source = ["def bind(env):"]
    source.extend("    %s = env[%r]" % (name, name) for name in names_used(guard_names | action_names, env))
    if guard is None:
        source.append("    guard = None")
    else:
        source.append("    def guard(t, ctx):")
        source.append("        return %s" % guard)
    if action is None:
        source.append("    action = None")
    else:
        source.append("    def action(t, ctx):")
        source.extend("        " + line for line in action)
    source.append("    return guard, action")
    namespace = {}
    exec(compile("\n".join(source) + "\n", "<hook %s>" % template.key, "exec"), namespace)
    COMPILES += 1
    factory = template.factory = namespace["bind"]
    for const in factory.__code__.co_consts:
        if isinstance(const, type(factory.__code__)):
            _TEMPLATE_CODES[const] = template
    return factory


def bind(template, env):
    """``(guard, action)`` closures of ``template`` over one model's constants ``env``."""
    return _factory(template, env)(env)


def template_of(hook, env):
    """The template whose closure ``hook`` is, bound over ``env``; else ``None``.

    A template closure is recognised by its code object, which a wrapper —
    even one copying the closure's attributes — does not share; and it
    belongs to ``env`` when every constant it closes over *is* ``env``'s.
    """
    if env is None:
        return None
    code = getattr(hook, "__code__", None)
    template = _TEMPLATE_CODES.get(code) if code is not None else None
    if template is None:
        return None
    for name, cell in zip(code.co_freevars, hook.__closure__ or ()):
        if env.get(name, _MISSING) is not cell.cell_contents:
            return None
    return template
