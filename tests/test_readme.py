"""The README's code examples run against the current API."""

import os
import re

from cutinsim.safety_models import LATERAL_FAIL, SAFE

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run_example(heading):
    """Exec the first python block under heading, up to the next heading:
    the names it defines."""
    with open(README) as fh:
        text = fh.read()
    section = re.split(r"\n#{2,3} ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    return namespace


def test_library_use_example_runs(capsys):
    run_example("## Library use")
    assert capsys.readouterr().out.strip()


def test_step_contract_example_gives_the_documented_steps():
    ns = run_example("### Safety-model step contract")
    # the float step at a standstill commands braking the ego cannot get
    step = (ns["code"], ns["decel_cmd_mps2"], ns["accel_mps2"], ns["memory"])
    assert repr(step) == repr((LATERAL_FAIL, 3.5, 0.0, 0))
    assert ns["safe"] is False
    # the array step's first entry is the float step
    entries = [a.tolist() for a in (ns["codes"], ns["decels"], ns["accels"], ns["memories"])]
    assert entries == [[LATERAL_FAIL, SAFE], [3.5, 0.0], [0.0, 0.0], [0.0, 0.0]]
