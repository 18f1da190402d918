"""Fuzzing the two inputs the package takes from outside: instance files
and command lines.

Whatever they hold, the reader and the CLI may only fail with a
GitTopoError (the CLI maps it to exit 2) or argparse's SystemExit(2);
any other exception is a traceback a user would see.  Shapes stay small,
so every example runs in milliseconds, and the runs are derandomized.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from git_topo.cli import main
from git_topo.errors import GitTopoError
from git_topo.serialize import instance_from_json

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

LONG_DIGITS = "7" * 4301

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(10**30, 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["0", "1", "-2", "1/2", "-7/3", "3/0", "1.5", "x", "", "1/-2", LONG_DIGITS,
         "1/" + LONG_DIGITS]
    ),
)
entries = st.one_of(scalars, st.lists(scalars, max_size=3))
matrices = st.one_of(scalars, st.lists(st.lists(entries, max_size=3), max_size=3))
small_ints = st.one_of(st.integers(-1, 4), scalars)
int_lists = st.one_of(scalars, st.lists(st.one_of(st.integers(-2, 2), scalars), max_size=4))
# Mostly readable cells, so a shaped instance usually gets as far as its
# status; the rest may be anything.
cells = st.one_of(
    st.integers(-3, 3), st.sampled_from(["0", "5", "1/2", "-7/3"]), st.just(LONG_DIGITS), entries
)
arrows = st.one_of(scalars, st.lists(st.lists(small_ints, max_size=3), max_size=4))

instances = st.fixed_dictionaries(
    {"family": st.one_of(st.sampled_from(["quiver", "control", "dag"]), scalars)},
    optional={
        "n": small_ints,
        "m": small_ints,
        "k": small_ints,
        "A": matrices,
        "B": matrices,
        "Y": matrices,
        "vertices": small_ints,
        "arrows": arrows,
        "dim": int_lists,
        "theta": int_lists,
        "values": st.one_of(scalars, st.lists(entries, max_size=4)),
    },
)


@st.composite
def shaped_instances(draw):
    """Instances of the right shape whose entries may still be anything."""

    def grid(rows, cols):
        return draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    family = draw(st.sampled_from(["control", "dag", "quiver"]))
    if family == "control":
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return {"family": family, "n": n, "m": m, "A": grid(n, n), "B": grid(n, m)}
    if family == "dag":
        n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return {"family": family, "n": n, "k": k, "Y": grid(n, k + 1)}
    v = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.lists(st.integers(1, v), min_size=2, max_size=2), max_size=3))
    dim = draw(st.lists(st.integers(0, 2), min_size=v, max_size=v))
    theta = draw(st.lists(st.integers(-2, 2), min_size=v, max_size=v))
    if 1 in dim:  # make theta admissible at the first vertex of dimension 1
        at = dim.index(1)
        theta[at] -= sum(a * d for a, d in zip(theta, dim))
    values = draw(st.lists(cells, min_size=len(pairs), max_size=len(pairs)))
    return {"family": family, "vertices": v, "arrows": pairs, "dim": dim,
            "theta": theta, "values": values}


json_values = st.one_of(
    shaped_instances(),
    instances,
    st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
)


@given(json_values)
@FUZZ
def test_instance_reader_raises_only_package_errors(data):
    try:
        instance_from_json(data).status()
    except GitTopoError:
        pass


file_bytes = st.one_of(
    json_values.map(lambda data: json.dumps(data).encode()),
    st.binary(max_size=48),
    st.sampled_from([
        b"[" * 100_000,
        b'{"family": "\xff"}',
        b'{"family": "dag", "n": 1, "k": 1, "Y": [[' + LONG_DIGITS.encode() + b", 1]]}",
        b"",
        b"{}",
        b"null",
    ]),
)


@given(file_bytes, st.lists(st.sampled_from(["--mle", "--stabilize", "--epsilon=0"])))
@FUZZ
def test_check_exits_cleanly_on_any_file(tmp_path_factory, content, flags):
    path = tmp_path_factory.getbasetemp() / "fuzzed_instance.json"
    path.write_bytes(content)
    assert _run(["check", str(path), *flags]) in (0, 2)


def _run(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2


GARBAGE = ["", "x", "-1", "1/0", "1e3", "1,,2", "->"]
# Counts come small or past their limit, so a refusal is all the large
# values ever cost.
counts = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["100000000", *GARBAGE]))
shapes = st.one_of(st.integers(-1, 5).map(str), st.sampled_from(GARBAGE))
OPTIONS = {
    "--n": shapes,
    "--m": shapes,
    "--samples": shapes,
    "--parents": shapes,
    "--dim": st.sampled_from(["1,1", "1,1,1", "2,1", "0,1", "1", "3,3", *GARBAGE]),
    "--theta": st.sampled_from(["1,-1", "-1,1", "1,0,-1", "2,-3", "0,0", *GARBAGE]),
    "--arrows": st.sampled_from(["1->2", "1->2,1->2", "1->2,2->3", "2->1", "1->1", "3->1",
                                 *GARBAGE]),
    "--max-q": st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["4097", *GARBAGE])),
    "--trials": counts,
    "--paths": counts,
    "--path-samples": st.one_of(st.integers(-1, 8).map(str), st.just("100000000")),
    "--grid": st.one_of(st.integers(-1, 1).map(str), st.just("100000000")),
    "--degenerate-trials": counts,
    "--seed": st.sampled_from(["0", "1", "-1", str(2**64), *GARBAGE]),
    "--bound": st.sampled_from(["1", "9", "0", "-3", *GARBAGE]),
    "--orbit-convention": st.sampled_from(["parabolic", "centralizer", "other"]),
}
SWITCHES = ["--assume-free-action", "--expect-degenerate", "--help-me"]
command_lines = st.tuples(
    st.sampled_from(["analyze", "homotopy", "verify", "check", "bogus"]),
    st.sampled_from(["quiver", "control", "dag", "kronecker", "other"]),
    st.lists(
        st.one_of(
            st.sampled_from(sorted(OPTIONS)).flatmap(
                lambda flag: OPTIONS[flag].map(lambda value: [f"{flag}={value}"])
            ),
            st.sampled_from(SWITCHES).map(lambda s: [s]),
        ),
        max_size=6,
    ),
)


@given(command_lines)
@FUZZ
def test_cli_exits_cleanly_on_any_command_line(command):
    subcommand, family, options = command
    # verify's default of 1000 trials is cut to 3; a drawn --trials wins.
    # The Kronecker oracle takes no --trials, so it gets none.
    cut = subcommand == "verify" and family != "kronecker"
    head = [subcommand, family] + (["--trials=3"] if cut else [])
    assert _run([*head, *(token for option in options for token in option)]) in (0, 1, 2)
