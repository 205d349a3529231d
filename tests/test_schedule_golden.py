"""Frozen priced schedules of the Hessenberg drivers.

The cost model is plain float arithmetic, so a run's simulated timeline
is exactly reproducible on any host. Each case pins the op count, the
``repr`` of the simulated seconds and the SHA-256 of
``Timeline.to_csv()`` (every op's name, resource, category, start and
end). A change that moves the order, the shape or the price of any
submitted op — in a computing or an order-only run, clean or on any
rung of the recovery ladder — moves a pin.
"""

import hashlib

import pytest

from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd
from repro.errors import EscalationExhausted
from repro.faults import FaultInjector, FaultSpec
from repro.resilience import LadderConfig
from repro.utils.rng import random_matrix

N, NB = 96, 16
ORDER, ORDER_NB = 1022, 32

#: a strike on the live V block: the updates applied a V that tier 1
#: cannot reverse, so the run restarts or fail-stops
PANEL_V = (dict(iteration=2, row=20, col=5, space="panel_v", phase="post_panel"),)

#: a checkpoint strike plus its trigger: the restore repairs the struck
#: panel from its guard rows, and tier 1 decodes the trigger alone
CHECKPOINT = (dict(iteration=2, row=20, col=5, space="checkpoint", phase="post_right"),
              dict(iteration=2, row=60, col=70, phase="post_right"))

#: computing runs: name -> (FTConfig kwargs, fault plan, what the run must show)
COMPUTING = {
    "clean": ({}, (), "none"),
    "channels2": ({"channels": 2}, (), "none"),
    "audit_every": ({"audit_every": 2}, (), "none"),
    "serial_q": ({"overlap_q_checksums": False}, (), "none"),
    "in_place": ({}, (dict(iteration=2, row=0, col=50, space="col_checksum"),), "in_place"),
    "reverse_redo": ({}, (dict(iteration=2, row=60, col=70),), "reverse_redo"),
    "restart": ({}, PANEL_V, "restart"),
    "checkpoint_repair": ({}, CHECKPOINT, "reverse_redo"),
    "audit_fix": ({"audit_every": 2}, (dict(iteration=3, row=5, col=20),), "audit"),
    "q_correction": ({}, (dict(iteration=3, row=70, col=20),), "q"),
    "tau_repair": (
        {},
        (dict(iteration=2, row=10, col=0, space="tau", phase="during_recovery"),
         dict(iteration=2, row=60, col=70)),
        "tau",
    ),
    "exhausted": ({"ladder": LadderConfig(max_restarts=0)}, PANEL_V, "exhausted"),
}

#: order-only runs: name -> fault plan
ORDER_ONLY = {
    "clean": (),
    "faults": (
        dict(iteration=5, row=600, col=700),
        dict(iteration=11, row=100, col=900),
        dict(iteration=20, row=900, col=100),
    ),
}

#: (op count, repr(seconds), sha256 of the timeline CSV); for the
#: exhausted runs, which return no timeline, the exception message and
#: the ladder's attempt summary
PINS = {
    'ft/audit_every/float64': (
        97,
        '0.00229957580379542',
        'ec5a5145608cf938529928460e95fdc6c09c95bab00f412b7a4636537498d0b3',
    ),
    'ft/audit_every/float32': (
        97,
        '0.0022818064704620868',
        'a0daf20ffcbf276589a76ab03485639ced26031c9220a1d9d619dd388b5f66a5',
    ),
    'ft/audit_fix/float64': (
        98,
        '0.00229958348379542',
        'f104a1f679c65235d273863647ac38feed2d047fafe2f7e553929c4f5da2e990',
    ),
    'ft/audit_fix/float32': (
        98,
        '0.002281814150462087',
        '682ca25ad4a22e29dec421adbef8de8da888451fa12d67801058032f9acc9a41',
    ),
    'ft/channels2/float64': (
        94,
        '0.00229852572379542',
        'e4f4f13ad528a20483c6430d37ef51e03d991c71e41a50ac206664a36faf23a9',
    ),
    'ft/channels2/float32': (
        94,
        '0.002280756390462087',
        '35ddbb5f58b32217696599b282244bf2c3a6bfca75f46853be736a65a8680271',
    ),
    'ft/checkpoint_repair/float64': (
        114,
        '0.0026938085803318236',
        '123730e732bf357e1255e00f1dbacd960b27f59d02cc4ed65ef79d2cd46165d4',
    ),
    'ft/checkpoint_repair/float32': (
        114,
        '0.002673147246998492',
        'f4608bbe4440c2d294c227d5e66345931facd53f1099fea9204ca76a5eb7fee6',
    ),
    'ft/clean/float64': (
        94,
        '0.0022973178837954198',
        '47ef6c7b3d493e81e2b94b782c5a02419cb0ae9d61a4d2b39cc0da037c7908f1',
    ),
    'ft/clean/float32': (
        94,
        '0.0022795485504620867',
        'befa462fd071bb0417346043b15e648ddafc11526eaaf14f03b00926edcd940f',
    ),
    'ft/exhausted/float64': (
        'iteration 2: no tier could produce a clean state',
        'escalation exhausted at iteration 2 (no tier could produce a clean state); tier successes/attempts: in_place: 0/1, reverse_redo: 0/1, deep_rollback: 0/1',
    ),
    'ft/exhausted/float32': (
        'iteration 2: no tier could produce a clean state',
        'escalation exhausted at iteration 2 (no tier could produce a clean state); tier successes/attempts: in_place: 0/1, reverse_redo: 0/1, deep_rollback: 0/1',
    ),
    'ft/in_place/float64': (
        95,
        '0.00229732556379542',
        'ef3ca793f0d3d91d6102f6aba0b40e518ad728bcebe74d272dacdcb9319d3409',
    ),
    'ft/in_place/float32': (
        95,
        '0.0022795562304620868',
        '7caf8588adbf4e41daca056dcc30a7aea8ae0200c33018fda2ede26e67491aa9',
    ),
    'ft/q_correction/float64': (
        95,
        '0.00229735628379542',
        'd229d00547867df58568e9b317b999500596b39c881b25e4a95594abad2b5063',
    ),
    'ft/q_correction/float32': (
        95,
        '0.0022795869504620868',
        'd081bad0aa25b894b67959138107876052587c90c7fc1acaa6da015b1ce57549',
    ),
    'ft/restart/float64': (
        140,
        '0.0034843866541450687',
        '50c381a9fa8775af4391703cf8aa30567600a3834423684278c87573c98dc7e0',
    ),
    'ft/restart/float32': (
        140,
        '0.0034543573208117365',
        '013ac82db2936a646281bd17021dac97eed8db664c46bfcc4e4b4a8c43e336ed',
    ),
    'ft/reverse_redo/float64': (
        114,
        '0.0026938085803318236',
        '123730e732bf357e1255e00f1dbacd960b27f59d02cc4ed65ef79d2cd46165d4',
    ),
    'ft/reverse_redo/float32': (
        114,
        '0.002673147246998492',
        'f4608bbe4440c2d294c227d5e66345931facd53f1099fea9204ca76a5eb7fee6',
    ),
    'ft/serial_q/float64': (
        94,
        '0.0022977730837954193',
        'b767971454f2642a050d0dff6e0508c48efa8b8990d99ad6d5f5c88eb7cbb32d',
    ),
    'ft/serial_q/float32': (
        94,
        '0.002280003750462086',
        '7d8599892ab291b05acec2356436db0617dd59ce787598f95750a81d09898bd8',
    ),
    'ft/tau_repair/float64': (
        114,
        '0.0026938085803318236',
        '123730e732bf357e1255e00f1dbacd960b27f59d02cc4ed65ef79d2cd46165d4',
    ),
    'ft/tau_repair/float32': (
        114,
        '0.002673147246998492',
        'f4608bbe4440c2d294c227d5e66345931facd53f1099fea9204ca76a5eb7fee6',
    ),
    'ft_order/clean': (
        484,
        '0.0592971453451803',
        '3924b6ee52694c185b644263d8e438d26d4b62f7cc8c81807292290b84f64cc9',
    ),
    'ft_order/faults': (
        525,
        '0.06486169920845745',
        '4a7f356e5e12162a1a49e38ce19bf6f6f365a6a6523146e41ce4f90db987a5ee',
    ),
    'hybrid/float64': (
        50,
        '0.002234168499081311',
        '0efbf29c80abda41a09f7f1679eabaebe154495666f82026156b9e1f4f4d2e44',
    ),
    'hybrid/float32': (
        50,
        '0.0022164071657479775',
        '0fbc1ce6088cbd95f22536b1056d000e7849a1bc69e1ac6c41390f6726385714',
    ),
    'hybrid_order': (
        258,
        '0.058570885883208516',
        '6e71d87cd98fc7f9773bb726ec76f3f47ab4441bc4d6355ec534e4cab50d7124',
    ),
}


def _injector(plan):
    return FaultInjector(faults=[FaultSpec(**kw) for kw in plan]) if plan else None


def _pin(res):
    csv = res.timeline.to_csv().encode()
    return (len(res.timeline.ops), repr(res.seconds), hashlib.sha256(csv).hexdigest())


def _outcome(res):
    """Every ladder rung and repair the run went through ("none" if clean)."""
    seen = {r.tier for r in res.recoveries}
    if res.restarts:
        seen.add("restart")
    if res.tau_repairs:
        seen.add("tau")
    if res.q_report is not None and res.q_report.errors:
        seen.add("q")
    return seen or {"none"}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", sorted(COMPUTING))
def test_ft_gehrd_computing(case, dtype):
    kwargs, plan, outcome = COMPUTING[case]
    a = random_matrix(N, seed=5, dtype=dtype)
    cfg = FTConfig(nb=NB, **kwargs)
    key = f"ft/{case}/{dtype}"
    if outcome == "exhausted":
        with pytest.raises(EscalationExhausted) as info:
            ft_gehrd(a, cfg, injector=_injector(plan))
        assert (str(info.value), info.value.report.summary()) == PINS[key]
        return
    res = ft_gehrd(a, cfg, injector=_injector(plan))
    assert outcome in _outcome(res)
    assert _pin(res) == PINS[key]


@pytest.mark.parametrize("case", sorted(ORDER_ONLY))
def test_ft_gehrd_order_only(case):
    res = ft_gehrd(ORDER, FTConfig(nb=ORDER_NB), injector=_injector(ORDER_ONLY[case]))
    assert res.a is None
    assert _pin(res) == PINS[f"ft_order/{case}"]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_hybrid_gehrd_computing(dtype):
    res = hybrid_gehrd(random_matrix(N, seed=5, dtype=dtype), HybridConfig(nb=NB))
    assert _pin(res) == PINS[f"hybrid/{dtype}"]


def test_hybrid_gehrd_order_only():
    res = hybrid_gehrd(ORDER, HybridConfig(nb=ORDER_NB))
    assert res.a is None
    assert _pin(res) == PINS["hybrid_order"]
