import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from reference_helpers import reference_closed_form_ideals

import rbcm
from rbcm import classify, cli, ideals
from rbcm.classify import InstanceReport, cross_check


# the directory holding the rbcm package this process imported: child
# interpreters import the same code, installed or not
RBCM_SRC = str(Path(rbcm.__file__).resolve().parents[1])


def _inherited_env():
    """This process's environment, with PYTHONPATH naming RBCM_SRC only."""
    return {**os.environ, "PYTHONPATH": RBCM_SRC}


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def load_schema(name):
    with resources.files("rbcm.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def test_factor_json_valid(capsys):
    code, out, _ = run_cli(["factor", "--p", "3", "--k", "2", "--n", "8", "--target", "plus"], capsys)
    assert code == 0
    payload = json.loads(out)
    schema = load_schema("factor.schema.json")
    for item in payload:
        jsonschema.validate(item, schema)
    # product identity is asserted inside the factorization itself; check shape
    assert all(item["coeffs"][-1] == 1 for item in payload)


def test_factor_deterministic(capsys):
    argv = ["factor", "--p", "5", "--k", "2", "--n", "6"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0 and out1 == out2


def test_lift_example(capsys):
    code, out, _ = run_cli(["lift", "--p", "3", "--k", "2", "--d", "8", "--l", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [8, 4, 1]
    # 5 is the other label of d = 8 over Z_3
    code, out, _ = run_cli(["lift", "--p", "3", "--k", "2", "--d", "8", "--l", "5"], capsys)
    assert code == 0
    assert json.loads(out)["coeffs"] == [8, 5, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--p", "2", "--d", "3", "--l", "3"],
        ["ideals", "--p", "2", "--d", "3", "--l", "3"],
        ["lift", "--p", "2", "--d", "3", "--l", "2"],
    ],
)
def test_factor_label_must_be_a_label(argv, capsys):
    """--l names one of the labels `factor` prints for d; over Z_2 the only one for d = 3 is 1."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2, err
    assert out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("command", ["lift", "ideals"])
@pytest.mark.parametrize("flag", ["--k", "--d", "--l"])
def test_label_flags_name_themselves(command, flag, capsys):
    """--k, --d or --l at 0 is a usage error that names that flag."""
    argv = {"--p": "2", "--k": "2", "--d": "1", "--l": "1"} | {flag: "0"}
    code, out, err = run_cli([command, *(t for kv in argv.items() for t in kv)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {flag} must be >= 1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        *(
            ([command, family, "--p", "3", "--k", "0", "--n", "4"], "--k must be >= 1")
            for command in ("classify", "export-map")
            for family in ("twogroup", "coprime", "cyclic")
        ),
        (["crosscheck", "--sweep", "--primes", "2,,3"], "--primes 2,,3: not a comma-separated list of integers"),
        (["crosscheck", "--sweep", "--primes", "3,x"], "--primes 3,x: not a comma-separated list of integers"),
        (["crosscheck", "--sweep", "--primes", "4"], "--primes 4: 4 is not prime"),
        (["crosscheck", "--sweep", "--primes", "3,9"], "--primes 3,9: 9 is not prime"),
        *(
            ([command, "rank2", "--p", "3", *flags, "--n", n], message)
            for command in ("classify", "export-map")
            for flags, n, message in (
                (("--k", "0"), "4", "--k must be >= 1"),
                (("--k", "1", "--k2", "2"), "4", "--k2 must be between 1 and --k"),
                (("--k", "2", "--k2", "0"), "4", "--k2 must be between 1 and --k"),
                ((), "1", "--n must exceed 1"),
            )
        ),
        *(
            (["classify", family, "--p", "4", "--n", "4"], "--p 4: 4 is not prime")
            for family in ("cyclic", "elementary", "rank2", "coprime")
        ),
        (["classify", "elementary", "--p", "3", "--m", "0", "--n", "4"], "--m must be >= 1"),
        (["classify", "elementary", "--p", "3", "--n", "0"], "--n must be >= 1"),
        (["classify", "elementary", "--p", "3", "--n", "2", "--map-type", "II"], "--map-type II needs --p 2"),
        (["classify", "coprime", "--p", "3", "--n", "3"], "--n 3: coprime needs n coprime to --p 3"),
        (["classify", "coprime", "--p", "2", "--n", "3"], "--p 2: coprime needs an odd prime"),
        (["classify", "rank2", "--p", "2", "--n", "4"], "--p 2: rank2 needs an odd prime"),
        (["classify", "twogroup", "--n", "1"], "--n must exceed 1"),
        (["export-map", "cyclic", "--p", "5", "--n", "1"], "--n must exceed 1"),
        (["crosscheck", "--sweep", "--max-order", "0"], "--max-order must be >= 1"),
        (["crosscheck", "--sweep", "--max-n", "1"], "--max-n must be >= 2"),
        (["crosscheck", "--sweep", "--max-n", "-1"], "--max-n must be >= 2"),
        (
            ["crosscheck", "--sweep", "--primes", "3", "--max-order", "2"],
            "--primes 3 --max-order 2: no instance in the sweep",
        ),
        *(
            (["classify", family, "--p", "3", "--k", "2", "--n", "4", "--max-order", bound], "--max-order must be >= 1")
            for family, bound in (("cyclic", "0"), ("rank2", "-5"))
        ),
        (["export-map", "twogroup", "--k", "2", "--n", "4", "--max-order", "0"], "--max-order must be >= 1"),
    ],
)
def test_family_and_sweep_flags_name_themselves(argv, message, capsys):
    """A bad flag of a family or a sweep, a --primes list that is not one of
    primes, or a bound that selects nothing is a usage error that names its
    flag."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [[*("--p", "2", "--k", "3", "--d", "1", "--l", "1", "--level"), str(level)] for level in range(1, 7)]
    + [
        ["--p", "2", "--k", "2", "--d", "3", "--l", "1", "--level", "2"],
        ["--p", "5", "--k", "1", "--d", "4", "--l", "1", "--level", "1"],
    ],
)
def test_ideals_output_matches_reference_path(argv, capsys, monkeypatch):
    """rbcm ideals prints, byte for byte, what the Poly-generator closed forms
    print, in JSON and as a table."""
    for fmt in ("json", "table"):
        code, got, _ = run_cli(["--format", fmt, "ideals", *argv], capsys)
        with monkeypatch.context() as m:
            m.setattr(ideals, "closed_form_ideals", reference_closed_form_ideals)
            ref_code, want, _ = run_cli(["--format", fmt, "ideals", *argv], capsys)
        assert code == ref_code == 0
        assert got == want


def test_ideals_json_builds_no_table_rows(capsys, monkeypatch):
    """Under --format json, the default, no table row is formed: no Poly is
    printed to a string.  The table prints every ideal's row polynomials."""
    from rbcm.poly import Poly

    printed = []
    to_str = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda f: printed.append(1) or to_str(f))
    argv = ["ideals", "--p", "2", "--k", "3", "--d", "1", "--l", "1", "--level", "2"]
    counts = {}
    for fmt in ("json", "table"):
        printed.clear()
        code, out, _ = run_cli(["--format", fmt, *argv], capsys)
        assert code == 0 and out
        counts[fmt] = len(printed)
    assert counts["json"] == 0 < counts["table"]


def test_ideals_json_valid(capsys):
    code, out, _ = run_cli(["ideals", "--p", "3", "--k", "2", "--d", "4", "--l", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    schema = load_schema("ideal.schema.json")
    for item in payload:
        jsonschema.validate(item, schema)


def test_classify_cyclic_table(capsys):
    code, out, _ = run_cli(
        ["--format", "table", "classify", "cyclic", "--p", "5", "--k", "1", "--n", "2"], capsys
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 3  # header + two rows
    assert "mu=2" in out and "mu=3" in out


def test_classify_map_json_valid(capsys):
    code, out, _ = run_cli(["classify", "cyclic", "--p", "5", "--k", "1", "--n", "2"], capsys)
    payload = json.loads(out)
    schema = load_schema("map.schema.json")
    for item in payload:
        jsonschema.validate(item["map"], schema)
    assert payload[0]["map"]["genus"] == 1


def test_oracle_and_crosscheck(capsys):
    code, out, _ = run_cli(["oracle", "--group", "5", "--valence", "4"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 2
    code, out, _ = run_cli(["crosscheck", "--group", "2,4", "--valence", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload["instances"][0] if "instances" in payload else payload,
                        load_schema("report.schema.json")["properties"]["instances"]["items"])
    assert payload["ok"]


def test_crosscheck_sweep_schema(capsys):
    code, out, _ = run_cli(
        ["crosscheck", "--sweep", "--primes", "5", "--max-order", "25", "--max-n", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("report.schema.json"))
    assert payload["ok"]


@pytest.mark.parametrize("primes,same", [("3,3", "3"), ("5,3", "3,5")])
def test_crosscheck_sweep_prime_list_is_a_set(primes, same, capsys):
    """A repeated prime runs once, and the report follows the primes in increasing order."""
    outs = []
    for spec in (primes, same):
        code, out, _ = run_cli(
            ["crosscheck", "--sweep", "--primes", spec, "--max-order", "25", "--max-n", "3"], capsys
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["instances"]


@pytest.mark.parametrize(
    "argv", [["--group", "2,4", "--valence", "4"], ["--sweep", "--primes", "5", "--max-order", "5"]]
)
def test_crosscheck_mismatch_exits_1(argv, monkeypatch, capsys):
    """A report with an instance that is not ok is printed whole, then exits 1."""

    def failing(group, valence):
        r = cross_check(group, valence)
        return InstanceReport(
            r.invariants, r.valence, r.oracle_count, r.standard_count, r.family_counts,
            r.matching, r.diagnostics, r.map_summaries, ok=False,
        )

    monkeypatch.setattr(classify, "cross_check", failing)
    monkeypatch.setattr(cli, "cross_check", failing)
    code, out, err = run_cli(["crosscheck", *argv], capsys)
    payload = json.loads(out)
    instances = payload.get("instances", [payload])
    assert code == 1 and instances and not payload["ok"]
    count = len(instances)
    assert err == f"ReconciliationMismatch: {count} of {count} instances are not ok\n"


def test_export_map(tmp_path, capsys):
    out_path = tmp_path / "map.txt"
    code, _, _ = run_cli(
        ["-o", str(out_path), "export-map", "cyclic", "--p", "5", "--k", "1", "--n", "2", "--index", "0"],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "5 10 5 1"
    assert len(lines) == 6
    # each vertex line lists valence-many arc targets
    for ln in lines[1:]:
        v, targets = ln.split(":")
        assert len(targets.split()) == 4


FAMILY_ARGS = {
    "cyclic": (classify.classify_cyclic, (5, 1, 2), ["--p", "5", "--k", "1", "--n", "2"]),
    "elementary": (classify.classify_elementary, (3, 2, 4), ["--p", "3", "--m", "2", "--n", "4"]),
    "twogroup": (classify.classify_2group, (2, 4), ["--k", "2", "--n", "4"]),
    "coprime": (classify.classify_coprime, (3, 2, 4), ["--p", "3", "--k", "2", "--n", "4"]),
    "rank2": (classify.classify_rank2, (3, 2, 1, 3), ["--p", "3", "--k", "2", "--k2", "1", "--n", "3"]),
}


@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_family_bound_at_or_below_zero_is_empty(family, capsys):
    """A bound of 0 or below lists nothing in the library; it is not read as
    "no bound".  On the command line it can select no map, so it is a usage
    error that names --max-order."""
    fn, args, argv = FAMILY_ARGS[family]
    assert fn(*args, max_order=None) and fn(*args)
    for bound in (0, -1):
        assert fn(*args, max_order=bound) == []
        for command in ("classify", "export-map"):
            code, out, err = run_cli([command, family, *argv, "--max-order", str(bound)], capsys)
            assert (code, out) == (2, "")
            assert err == "usage error: --max-order must be >= 1\n"


@pytest.mark.parametrize("spec, invariant_spec", [("4,2", "2,4"), ("9,3", "3,9")])
def test_equivalent_group_specs(spec, invariant_spec, capsys):
    for command in ("crosscheck", "oracle"):
        got = run_cli([command, "--group", spec, "--valence", "4"], capsys)
        want = run_cli([command, "--group", invariant_spec, "--valence", "4"], capsys)
        assert got == want
        assert got[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["crosscheck", "--group", "1,4"],
        ["oracle", "--group", "1,4"],
        ["crosscheck", "--group", "2,3"],
    ],
)
def test_bad_group_spec_usage_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", *argv, "--valence", "4"],
        capture_output=True,
        text=True,
        env=_inherited_env(),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: --group")
    assert "Traceback" not in proc.stderr


def test_domain_error_exit_code(monkeypatch, capsys):
    """A group past the oracle budget exits 1, naming the variable that raises the budget."""
    monkeypatch.delenv("RBCM_ORACLE_BUDGET", raising=False)
    for group in ("256", "3,81"):
        code, out, err = run_cli(["oracle", "--group", group, "--valence", "4"], capsys)
        assert code == 1, group
        assert err.startswith("TooLarge: ") and "RBCM_ORACLE_BUDGET" in err, group


@pytest.mark.parametrize("budget", ["abc", "0", "-5", "", "1.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--group", "3,3", "--valence", "4"],
        ["crosscheck", "--group", "3,3", "--valence", "4"],
    ],
)
def test_bad_oracle_budget_usage_error(argv, budget, monkeypatch, capsys):
    """An RBCM_ORACLE_BUDGET that is not an integer >= 1 is a usage error
    that names the variable."""
    monkeypatch.setenv("RBCM_ORACLE_BUDGET", budget)
    code, out, err = run_cli(argv, capsys)
    assert code == 2, err
    assert err == f"usage error: RBCM_ORACLE_BUDGET must be an integer >= 1, not {budget!r}\n"
    assert out == ""


def test_bad_oracle_budget_exit_status():
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", "oracle", "--group", "3,3", "--valence", "4"],
        capture_output=True,
        text=True,
        env={**_inherited_env(), "RBCM_ORACLE_BUDGET": "abc"},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "usage error: RBCM_ORACLE_BUDGET must be an integer >= 1, not 'abc'\n"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", "classify", "--bogus"],
        capture_output=True,
        text=True,
        env=_inherited_env(),
        timeout=120,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--p", "4", "--n", "2"],
        ["crosscheck", "--group", "2", "--valence", "8"],
        ["classify", "cyclic", "--p", "4", "--n", "2"],
        ["classify", "rank2", "--p", "3", "--k", "1", "--k2", "2", "--n", "3"],
        ["factor", "--p", "3", "--k", "40", "--n", "2"],
        ["crosscheck", "--sweep", "--primes", "1", "--max-order", "8", "--max-n", "2"],
        ["crosscheck", "--sweep", "--primes", "4", "--max-order", "8", "--max-n", "2"],
        ["crosscheck", "--group", "4", "--valence", "-2"],
        ["oracle", "--group", "2", "--valence", "0"],
        ["classify", "elementary", "--p", "0", "--n", "2"],
        ["classify", "elementary", "--p", "1", "--n", "2"],
        ["classify", "elementary", "--p", "-1", "--n", "2"],
        ["classify", "elementary", "--p", "4", "--n", "2"],
        ["classify", "elementary", "--p", "2", "--n", "0"],
        ["classify", "elementary", "--p", "3", "--n", "-3"],
        ["classify", "elementary", "--p", "3", "--m", "0", "--n", "2"],
        ["export-map", "elementary", "--p", "1", "--n", "2"],
        ["export-map", "elementary", "--p", "2", "--n", "0"],
        ["-o", "/nonexistent/dir/out.json", "factor", "--p", "2", "--n", "4"],
        ["-o", ".", "factor", "--p", "2", "--n", "4"],
        ["-o", "/nonexistent/dir/out.rot", "export-map", "cyclic", "--p", "5", "--n", "2"],
        ["-o", ".", "export-map", "cyclic", "--p", "5", "--n", "2"],
    ],
)
def test_not_prime_usage_error(argv):
    """Bad values, including those only the library rejects, exit 2 without a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", *argv],
        capture_output=True,
        text=True,
        env=_inherited_env(),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error:")
    assert "Traceback" not in proc.stderr


def _run_cli_child(argv, seed):
    """Run ``python -m rbcm.cli`` in a fresh interpreter with a minimal environment.

    The child sees only ``PATH``, its own ``PYTHONHASHSEED`` and a
    ``PYTHONPATH`` naming the directory that holds the ``rbcm`` package this
    test process imported, so it runs the same code the suite is testing.
    """
    env = {
        "PYTHONHASHSEED": seed,
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": RBCM_SRC,
    }
    proc = subprocess.run(
        [sys.executable, "-m", "rbcm.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code):
    """Names in sys.modules after ``code`` runs in a fresh interpreter whose
    environment holds only ``PATH`` and a ``PYTHONPATH`` naming this rbcm."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": RBCM_SRC}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Importing the CLI loads neither module unless a bare interpreter already does.

    ``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, and each of its
    decorators compiles generated code at import: together most of the
    start-up of a cold command.  This is a structural guard, not a timing.
    """
    bare = _modules_after("pass")
    cli_import = _modules_after("import rbcm.cli")
    assert "rbcm.cli" in cli_import
    for name in ("dataclasses", "inspect"):
        assert name in bare or name not in cli_import, name


def test_cross_process_determinism():
    """Byte-identical output across processes with different hash seeds."""
    crosscheck = ["crosscheck", "--group", "2,4", "--valence", "4"]
    outs = [_run_cli_child(crosscheck, seed) for seed in ("0", "424242")]
    assert outs[0] == outs[1]
    factor = ["factor", "--p", "2", "--k", "3", "--n", "12"]
    outs = [_run_cli_child(factor, seed) for seed in ("7", "424242")]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])


_SMALL = st.integers(-1, 5)
_VALENCE = st.integers(-2, 8)
_GROUP = st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4, 9]), min_size=1, max_size=3).map(
    lambda orders: ",".join(map(str, orders))
)


def _opt(name, values):
    return values.map(lambda v: [name, str(v)])


def _argv(*parts):
    """Concatenation of token lists, each drawn from one strategy or fixed."""
    drawn = [part if isinstance(part, st.SearchStrategy) else st.just(part) for part in parts]
    return st.tuples(*drawn).map(lambda lists: [t for tokens in lists for t in tokens])


def _family_argv(command, *extra):
    return _argv(
        [command],
        st.sampled_from([["cyclic"], ["elementary"], ["twogroup"], ["coprime"], ["rank2"]]),
        _opt("--p", _SMALL),
        _opt("--k", _SMALL),
        _opt("--k2", _SMALL),
        _opt("--m", _SMALL),
        _opt("--n", _VALENCE),
        _opt("--map-type", st.sampled_from(["I", "II"])),
        # at the default bound a family builds maps on groups of order 4096
        _opt("--max-order", st.integers(-1, 81)),
        *extra,
    )


_CLI_ARGV = st.one_of(
    _argv(
        ["factor"],
        _opt("--p", _SMALL),
        _opt("--k", _SMALL),
        _opt("--n", _VALENCE),
        _opt("--target", st.sampled_from(["plus", "minus", "radical"])),
    ),
    _argv(["oracle"], _opt("--group", _GROUP), _opt("--valence", _VALENCE)),
    _argv(["crosscheck"], _opt("--group", _GROUP), _opt("--valence", _VALENCE)),
    _family_argv("classify"),
    _family_argv("export-map", _opt("--index", st.integers(-1, 3))),
    # radical levels above 2 are slow by design, so lift and ideals stay below
    _argv(
        st.sampled_from([["lift"], ["ideals"]]),
        _opt("--p", _SMALL),
        _opt("--k", _SMALL),
        _opt("--d", st.integers(-1, 8)),
        _opt("--l", st.integers(-1, 8)),
        _opt("--level", st.integers(0, 2)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_CLI_ARGV)
def test_cli_exit_status_property(argv):
    """Any small argv ends in exit 0, 1 or 2; nothing is raised out of main."""
    try:
        code = cli.main(["-o", os.devnull, *argv])
    except SystemExit as exc:  # argparse rejects the argv with exit 2
        code = exc.code
    assert code in (0, 1, 2), argv
