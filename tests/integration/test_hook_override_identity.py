"""A hook override is built the same whatever was built before it.

The documented way to change a built-in hook is an ``ArmSemantics``
subclass (passed as ``semantics_class=``) that registers its own template
under the hook's name.  The templates a model derives from its hooks — an
action chain, a multi-issue gate — are built per model, and a template is
known by its content, not its key.  So an override built after the stock
model in the same process must still run its own text, on both backends:

* ``mem.agen`` on ``strongarm`` (chained after ``mem.issue``) with a
  three-cycle residence: crc runs 7,643 cycles, not the stock 7,403;
* ``alu.issue`` on ``strongarm-ds``, an issue point: the transition's
  action, and on ``generated`` the emitted module, carries the
  override's text (the issue gate is schedule data, not a hook).
"""

import pytest

from repro.describe import elaborate
from repro.describe.semantics import HOOK_TEMPLATES, ArmSemantics
from repro.describe.templates import HookTemplate, bind, template_of
from repro.processors import build_processor, get_spec
from repro.workloads import get_workload

BACKENDS = ("interpreted", "generated")


def overriding(name, extra):
    """An ``ArmSemantics`` whose ``name`` hook runs ``extra`` after the stock action."""

    class Override(ArmSemantics):
        def _install_hooks(self):
            super()._install_hooks()
            stock = HOOK_TEMPLATES[name]
            template = HookTemplate(stock.key, stock.guard, stock.action + "\n" + extra, stock.inline)
            self.register(name, *bind(template, self.env))

    return Override


def crc_cycles(processor):
    processor.load_program(get_workload("crc", scale=1).program)
    stats = processor.run()
    assert stats.finish_reason == "halt"
    return stats.cycles


@pytest.mark.parametrize("backend", BACKENDS)
def test_agen_override_after_a_stock_build(backend):
    assert crc_cycles(build_processor("strongarm", backend=backend)) == 7403
    semantics = overriding("mem.agen", "t.delay_override = 3")
    processor = elaborate(get_spec("strongarm"), backend=backend, semantics_class=semantics)
    assert crc_cycles(processor) == 7643


ISSUE_OVERRIDE = 't.annotations["issue-override"] = True'


@pytest.mark.parametrize("backend", BACKENDS)
def test_gated_issue_override_after_a_stock_build(backend):
    build_processor("strongarm-ds", backend=backend)
    semantics = overriding("alu.issue", ISSUE_OVERRIDE)
    processor = elaborate(get_spec("strongarm-ds"), backend=backend, semantics_class=semantics)
    net = processor.net
    gated = [
        template
        for template in (template_of(t.action, net.hook_env) for t in net.transitions)
        if template is not None and template.key.startswith("alu.issue")
    ]
    assert gated and all(ISSUE_OVERRIDE in template.action for template in gated)
    if backend == "generated":
        assert ISSUE_OVERRIDE in processor.engine.source
