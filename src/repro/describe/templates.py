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
  ``@ready(x)``, ``@can_read(x)``, ``@can_write(x)``, ``@has_value(x)``
  and ``@stall_free()`` (the fetch stall stage is empty);
* the fetch path's services, expanded inline (each a line of its own) —
  ``@read_word(var, addr)``, ``@btb_lookup(taken, target, addr)``,
  ``@decode(var, word, pc)`` (decode-cache hit, recycling a retired
  token of the word when one is free), ``@fetch_delay(var, addr)`` and
  ``@data_delay(var, addr, is_write)`` (L1 hit: counters, LRU order and
  the cache's ``last_line``), ``@note_fetch(token)``, ``@set_value(x, v)``
  and ``@emit(token[, residence])``;
* the protocol's effects — ``@read(x)``, ``@condition(var)``,
  ``@reserve_write(x)``, ``@writeback(x)`` — each one call:
  ``operand_read`` or the RegRef method, whose checks raise as before.
  Expanding these inline too doubled the emitted module's size, and with
  it its compile time and peak memory; guards run on every attempt, the
  effects once per instruction.

Each inline fragment keeps the checks of the code it replaces and falls
back to the method for everything off its fast path (a decode-cache
miss, an L1 miss, an attached cache trace).

A template runs in one of two renderings:

* ``"closure"`` — :func:`bind` turns it into a ``(guard, action)`` pair of
  closures over one model's constants.  The source is ``exec``'d once per
  distinct template content in a process (:data:`COMPILES` counts it) and
  the resulting factory is called once per model; the interpreted engine
  calls the closures.
* ``"splice"`` — :mod:`repro.codegen.emit` pastes the rendering into the
  transition sites of the emitted cycle loop.  The rendering is made per
  :data:`Site`, the facts the emitter knows at the site, and folds them
  in: ``@stall_free()`` and ``@note_fetch`` drop their tests of a constant
  the model binds to ``None``, and ``@emit`` deposits the fetched token straight into its entry
  place (through an operation class -> place table) where the enable test
  proves that stage has room.  The front end's fragments — ``@read_word``,
  ``@decode``, ``@fetch_delay``, ``@btb_lookup`` — count into the loop's
  run-local counters (:data:`FRONT_END_COUNTERS`) over objects the loop
  binds once or per stretch (:data:`FRONT_END_LOCALS`), and
  ``@fetch_delay`` takes a hit on the cache's ``last_line`` (its set's
  most recently used line) with no set lookup or LRU update.

A template is known by its content alone (:class:`HookTemplate` is a
value): its key, guard, action and ``inline`` flag.  Its renderings and
its closure factory are memoised under that content, so a template built
anew with the same text reuses them, and one of the same key with other
text — a subclass's override of a built-in hook, say — gets its own,
whatever was built before it in the process.

The emitter splices only closures :func:`bind` made over the net's own
constants, recognised by their code object (:func:`template_of`): a wrapper
— even one that copies the closure's attributes, like
:func:`functools.update_wrapper` — or a plain callable registered by a
subclass is called, never spliced.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple

from repro.isa.registers import PC

_NAME = re.compile(r"\b[A-Za-z_]\w*\b")
_STATEMENT = re.compile(r"^(\s*)@(\w+)\((.*)\)\s*$")
_EXPRESSION = re.compile(r"@(\w+)\(([^()]*)\)")


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------

#: What the emitter knows about one splice site when it emits the module
#: (see :func:`render`): the firing transition's ``delay``; ``entry``, the
#: ``(stage local, list attribute)`` an emitted token joins where the
#: enable test proves the entry stage has room for it, else ``None``; and
#: ``absent``, the model constants bound to ``None``.
Site = namedtuple("Site", ("delay", "entry", "absent"), defaults=(0, None, frozenset()))

#: The spliced front end's run-local counters, with the statistics each
#: adds into when the loop writes its counters back (a spliced L1I hit is
#: one access and one hit).
FRONT_END_COUNTERS = {
    "main_reads": ("MAIN.read_count",),
    "decoder_hits": ("DECODER.hits",),
    "l1i_hits": ("l1i.stats.accesses", "l1i.stats.hits"),
    "btb_lookups": ("PREDICTOR.lookups",),
    "btb_hits": ("PREDICTOR.hits",),
}

#: The spliced front end's other locals, in binding order, as ``(name,
#: expression, per_stretch)``.  A reset rebinds the per-stretch objects
#: (the memory system rebuilds its caches, the BTB its table, the decoder
#: its sequence), so ``run_cycles`` binds those on entry; the others are
#: only ever mutated in place and ``make_run_cycles`` binds them once.
FRONT_END_LOCALS = (
    ("main_words", "MAIN._words", False),
    ("main_default", "MAIN.default_value", False),
    ("decoder_cache", "DECODER._cache", False),
    ("decoder_seq", "DECODER._sequence", True),
    ("l1i", "MEMORY.icache", True),
    ("l1i_traced", "l1i.trace is not None", True),
    ("l1i_sets", "l1i._sets", True),
    ("l1i_line", "l1i.line_bytes", True),
    ("l1i_nsets", "l1i.set_count", True),
    ("l1i_latency", "l1i.config.hit_latency", True),
    ("btb_entries", "PREDICTOR.entries", True),
)


#: Names of the emitted cycle loop's own state; a template temporary may
#: not reuse one (the splice would clobber it).
RESERVED_NAMES = frozenset((
    "cycle", "cycle0", "idle0", "stats", "tf", "rbc", "fired", "limit", "engine",
    "deposit", "entry_places", "trace_token",
    "stalls", "instructions", "generated_tokens", "_oc", "_d", "_r", "_n",
    "_stalls", "_hc", "_tm", "iss", "_q",
)) | frozenset(FRONT_END_COUNTERS) | frozenset(name for name, _expr, _stretch in FRONT_END_LOCALS)

#: The loop's indexed names: run-local counters (``tf3``, ``rbc0``,
#: ``iss0``), place token lists (``p3t``, ``p3p``) and the bound places,
#: stages and hooks.
RESERVED_INDEXED = re.compile(r"(?:tf|rbc|iss|[psga])\d+[tp]?|hc[ga]\d+")


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
    "stall_free": lambda: "(STALL_STAGE is None or STALL_STAGE._occupancy == 0)",
}

#: Expression fragments whose splice rendering folds the site's facts.
_SPLICED_EXPRESSIONS = {
    "stall_free": lambda site: (
        "True" if "STALL_STAGE" in site.absent else "STALL_STAGE._occupancy == 0"
    ),
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
    # Cache.access's hit path (counters, LRU order, last line); the method
    # otherwise.
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
        _cc.last_line = _ln
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


def _btb_lookup(taken, target, address):
    # ``taken``: a BTB hit predicting taken; ``target`` is read only then.
    return f"""
_e, {taken}, {target} = PREDICTOR.lookup({address})
{taken} = bool(_e and {taken})
"""


def _note_fetch(token):
    return f"""
if ISSUE_CONTROL is not None:
    ISSUE_CONTROL.note_fetch({token})
"""


def _emit(token, delay=None):
    # ``delay``, when given, is the token's residence in its entry place.
    if delay is None:
        return "ctx.emit(%s)" % token
    return "%s.delay_override = %s\nctx.emit(%s)" % (token, delay, token)


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
    "btb_lookup": _btb_lookup,
    "note_fetch": _note_fetch,
    "emit": _emit,
}


# The splice renderings of the front end's fragments: the same steps over
# the loop's own locals (FRONT_END_LOCALS) and run-local counters
# (FRONT_END_COUNTERS), with the site's facts folded in.

def _decode_spliced(site, var, word, pc):
    return f"""
_dc = decoder_cache.get({word})
if _dc is None:
    {var} = DECODER.decode_word({word}, pc={pc})
else:
    decoder_hits += 1
    _df = _dc.free
    if _df:
        {var} = _dc.renew(_df.pop(), {pc}, next(decoder_seq))
    else:
        {var} = _dc.make(_dc, {pc}, next(decoder_seq))
"""


def _read_word_spliced(site, var, address):
    return f"""
main_reads += 1
{var} = main_words.get({address} & 0xFFFFFFFC, main_default)
"""


def _fetch_delay_spliced(site, var, address):
    # The latest access's line is its set's most recently used: a read of
    # it hits and moves nothing (Cache.last_line).
    return f"""
_ln = {address} // l1i_line
if l1i_traced:
    {var} = MEMORY.instruction_delay({address})
elif _ln == l1i.last_line:
    l1i_hits += 1
    {var} = l1i_latency
else:
    _cl = l1i_sets[_ln % l1i_nsets].lines
    _ct = _ln // l1i_nsets
    if _ct in _cl:
        l1i_hits += 1
        _cl[_ct] = _cl.pop(_ct)
        l1i.last_line = _ln
        {var} = l1i_latency
    else:
        {var} = MEMORY.instruction_delay({address})
"""


def _btb_lookup_spliced(site, taken, target, address):
    # BranchTargetBuffer.lookup, inline.
    return f"""
btb_lookups += 1
_be = btb_entries.get({address})
if _be is None:
    {taken} = False
else:
    btb_hits += 1
    {target}, {taken} = _be
    {taken} = {taken} >= 2
"""


def _note_fetch_spliced(site, token):
    return "" if "ISSUE_CONTROL" in site.absent else "ISSUE_CONTROL.note_fetch(%s)" % token


def _emit_spliced(site, token, delay=None):
    # SimulationEngine.queue_emission + deliver_emissions, for an emission
    # routed by operation class: straight into the entry place where the
    # site proves it has room and the residence is given, else through the
    # engine's own deposit (which checks capacity and retires into end).
    lines = [
        "_ep = entry_places[%s.opclass]" % token,
        "if trace_token is not None:",
        "    trace_token(cycle, %s, None)" % token,
        "generated_tokens += 1",
    ]
    if site.entry is None or delay is None:
        if delay is not None:
            lines.append("%s.delay_override = %s" % (token, delay))
        lines.append("deposit(%s, _ep, %d)" % (token, site.delay))
    else:
        stage, store = site.entry
        ready = "cycle + %d + %s" % (site.delay, delay) if site.delay else "cycle + %s" % delay
        lines += [
            "%s.ready_cycle = %s" % (token, ready),
            "%s.place = _ep" % token,
            "%s._occupancy += 1" % stage,
            "_ep.%s.append(%s)" % (store, token),
        ]
    return "\n".join(lines)


_SPLICED_STATEMENTS = {
    "decode": _decode_spliced,
    "read_word": _read_word_spliced,
    "fetch_delay": _fetch_delay_spliced,
    "btb_lookup": _btb_lookup_spliced,
    "note_fetch": _note_fetch_spliced,
    "emit": _emit_spliced,
}


def _fragment(table, spliced, name, site):
    """Fragment ``name``'s renderer: the splice form at a ``site``, else the closure form."""
    if site is not None and name in spliced:
        return functools.partial(spliced[name], site)
    return table[name]


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


def _expand_expression(text, site=None):
    def replace(match):
        fragment = _fragment(_EXPRESSION_FRAGMENTS, _SPLICED_EXPRESSIONS, match.group(1), site)
        return fragment(*_split_args(match.group(2)))

    return _EXPRESSION.sub(replace, text)


def _expand_block(text, site=None):
    """The statement lines of ``text`` with every fragment expanded."""
    lines = []
    for line in text.splitlines():
        if not line.strip():
            continue
        match = _STATEMENT.match(line)
        if match is None:
            lines.append(_expand_expression(line, site))
            continue
        indent, name, args = match.groups()
        fragment = _fragment(_STATEMENT_FRAGMENTS, _SPLICED_STATEMENTS, name, site)
        for inner in _expand_block(fragment(*_split_args(args)), site):
            lines.append(indent + inner)
    return lines


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

#: Names through which a hook reads the statistics the emitted loop keeps
#: run-local: ``stats``, the front end's counters' attributes and the
#: units' reports of them.
_STATISTICS_NAMES = frozenset(
    ("stats", "statistics", "statistics_summary", "cache_info")
) | frozenset(
    statistic.rsplit(".", 1)[1] for statistics in FRONT_END_COUNTERS.values() for statistic in statistics
)


class HookTemplate(namedtuple("HookTemplate", ("key", "guard", "action", "inline"))):
    """One hook as source: a guard expression and/or an action block.

    A template is a value: two templates of equal ``key``, guard, action
    and ``inline`` are equal and hash alike, and every memo keyed by a
    template (its renderings, its closure factory) is keyed by that
    content.  ``key`` names the template (a composed template's key joins
    its parts' keys with ``+``); it names host-time counters and error
    messages, but two templates of one key and other text are two
    templates.  ``writes_delay`` and ``emits`` are what the emitter may
    assume about the action: it writes ``t.delay`` (the token's
    ``delay_override``) only if ``writes_delay``, and emits a token
    (routed by operation class) only if ``emits``.  ``inline=False`` keeps
    the emitter calling the template's closure instead of splicing it (see
    :mod:`repro.describe.semantics` for which hooks, and why).
    """

    __slots__ = ()

    def __new__(cls, key, guard=None, action=None, inline=True):
        return super().__new__(
            cls,
            key,
            " ".join(line.strip() for line in guard.splitlines()).strip() if guard else None,
            action.strip("\n") if action and action.strip() else None,
            inline,
        )

    @property
    def reads_stats(self):
        """True when the source names ``stats`` (``ctx.stats``, say), a
        counter the spliced front end keeps run-local, or a report of them."""
        return not _STATISTICS_NAMES.isdisjoint(_NAME.findall("%s\n%s" % (self.guard or "", self.action or "")))

    @property
    def writes_delay(self):
        return self.action is not None and "t.delay_override" in self.action

    @property
    def emits(self):
        return self.action is not None and "@emit(" in self.action

    @property
    def emits_once(self):
        """True when every run of the action emits exactly one token: its
        one ``@emit`` is a top-level statement (templates never return)."""
        sites = [line for line in (self.action or "").splitlines() if "@emit(" in line]
        return len(sites) == 1 and sites[0].startswith("@emit(")

    def prefixed(self, key, prefix):
        """This template with ``prefix`` run before its action."""
        return HookTemplate(key, self.guard, prefix.strip("\n") + "\n" + (self.action or ""), self.inline)


def compose(templates):
    """One action-only template running ``templates``' actions in order."""
    templates = tuple(templates)
    return HookTemplate(
        "+".join(template.key for template in templates),
        action="\n".join(template.action for template in templates if template.action),
        inline=all(template.inline for template in templates),
    )


#: One rendering of a template: the guard expression and action lines
#: (``None`` when absent) and the identifiers each reads.
Rendering = namedtuple("Rendering", ("guard", "action", "guard_names", "action_names"))


def render(template, mode, site=None):
    """The :data:`Rendering` of ``template`` in ``mode``.

    ``mode`` is ``"closure"`` or ``"splice"``; ``site`` is the splice
    site's :data:`Site` (the default knows nothing of the site), which
    only the splice rendering reads.  Memoised by content: template, mode
    and site.  The closure rendering, which is the template's own text, is
    checked for temporaries that would clobber the loop's state; the
    splice forms of the fragments are the loop's own code and update its
    counters.
    """
    if mode == "closure":
        site = None
    elif site is None:
        site = Site()
    rendering = _RENDERINGS.get((template, mode, site))
    if rendering is None:
        if mode != "closure":
            render(template, "closure")
        guard = _expand_expression(template.guard, site) if template.guard else None
        action = _expand_block(template.action, site) if template.action else None
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
        rendering = _RENDERINGS[template, mode, site] = Rendering(guard, action, guard_names, action_names)
    return rendering


_RENDERINGS = {}


def names_used(names, env):
    """The constants of ``env`` among ``names``, sorted."""
    return tuple(sorted(name for name in env if name in names))


def front_end_needs(names):
    """What a module whose splices read ``names`` binds for its front end.

    Returns ``(counters, locals, needed)``: the names of the run-local
    counters among ``names``, the :data:`FRONT_END_LOCALS` entries the
    splices and the counters' write-backs read (in binding order), and
    every name those read, the model constants included.
    """
    counters = [name for name in FRONT_END_COUNTERS if name in names]
    needed = set(names)
    for name in counters:
        for statistic in FRONT_END_COUNTERS[name]:
            needed.update(_NAME.findall(statistic))
    bindings = []
    for entry in reversed(FRONT_END_LOCALS):
        if entry[0] in needed:
            needed.update(_NAME.findall(entry[1]))
            bindings.insert(0, entry)
    return counters, bindings, needed


# ---------------------------------------------------------------------------
# Closure rendering
# ---------------------------------------------------------------------------

#: Templates ``exec``'d into closure factories so far in this process:
#: one per distinct template content.
COMPILES = 0

#: template -> its closure factory.
_FACTORIES = {}

#: code object -> template, for every closure body compiled so far.
_TEMPLATE_CODES = {}

_MISSING = object()


def _factory(template, env):
    """``template``'s closure factory, compiled on the first use of its content.

    The factory binds every constant the template reads as ``NAME =
    env[NAME]``, so the closures see the values ``env`` holds when the
    model is built; the names are those of the first ``env`` (every model
    binds the same ones).
    """
    global COMPILES
    factory = _FACTORIES.get(template)
    if factory is not None:
        return factory
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
    factory = _FACTORIES[template] = namespace["bind"]
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
