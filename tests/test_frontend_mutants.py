"""Front-end golden and seeded mutation campaigns.

The golden pins the MiniC lexer and parser: for every input of a fixed
corpus (the thirteen Table-I routines, forty ``repro.synth`` programs
of each grade, hand-written lexical edge cases, and seeded byte-level
and token-level mutants of them) ``tests/golden/frontend.json`` holds
a digest of the canonical token stream plus the AST ``repr``, or the
error class, line and column.  It was written by the front end named
in its ``commit`` field; ``divergences`` lists each input whose record
changed on purpose since, with the reason.  Regenerate, when the
language changes on purpose, with
``PYTHONPATH=src python tests/test_frontend_mutants.py --write COMMIT``.

The campaigns feed seeded mutants of MiniC source, constraint text and
job specs to the entry points that accept them from outside.  Anything
but a :class:`~repro.errors.ReproError` is a bug; a failure names the
seed and the input.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import string
import sys
from pathlib import Path

from repro.codegen import compile_source
from repro.engine.core import execute_job
from repro.errors import ReproError
from repro.lang import parse_program, tokenize
from repro.programs import all_benchmarks, get_benchmark
from repro.service.protocol import JobSpec
from repro.synth import generate

GOLDEN = Path(__file__).parent / "golden" / "frontend.json"

GRADES = ("tiny", "small", "medium", "large")
PER_GRADE = 40
MUTANTS_PER_KIND = 2

#: What the byte-level mutator inserts: ASCII, plus Unicode letters,
#: decimal digits of other scripts (which ``int()`` accepts), digits
#: that are not decimal (which it rejects), other numerics, and blanks
#: MiniC does not accept.
ALPHABET = (string.ascii_letters + string.digits + string.punctuation
            + " \t\r\n\x0c" + "éßµİKº" + "٣০" + "²³①" + "½Ⅻ"
            + "  ")

#: What the token-level mutator inserts.
VOCABULARY = (
    "int", "float", "void", "const", "if", "else", "while", "for", "do",
    "return", "break", "continue", "x", "main", "f", "0", "7", "0x1f",
    "0X", "1e", "1.5e+3", ".5", "2²", "x²", "٣", "café", "(", ")", "{",
    "}", "[", "]", ";", ",", "?", ":", "=", "+=", "<<=", "==", "<", "-",
    "++", "!", "~", "&&", "/*", "*/", "//", "$", "'", ".",
)

#: Hand-written lexical edge cases.
EDGE_CASES = {
    "edge:unicode-identifier":
        "int café = 1;\nint main(void) { return café; }\n",
    "edge:unicode-decimal-digits":
        "int x = ٣٤;\nfloat y = ١.٥e٢;\nint z = 0x٣f;\n",
    "edge:superscript-in-identifier":
        "int x² = 2;\nint main(void) { return x²; }\n",
    "edge:kelvin-sign-identifier": "int K = 1;\n",
    "edge:superscript-digit": "int x = 2²;\n",
    "edge:superscript-hex": "int x = 0x²;\n",
    "edge:superscript-after-dot": "float y = .²;\n",
    "edge:superscript-exponent": "float y = 1e²;\n",
    "edge:superscript-then-letter": "int x = ²x;\n",
    "edge:numeric-start": "int ½;\n",
    "edge:no-break-space": "int x;\n",
    "edge:trailing-line-comment": "int main(void) { return 0; // end",
    "edge:trailing-line-comment-only": "// nothing else",
    "edge:hex-then-float": "int x = 0x1.5;\n",
    "edge:glued-exponent": "float y = 1ex;\n",
    "edge:bare-dot": "int x = ..5;\n",
    "edge:unterminated-comment": "int x;\n/* open",
}


def byte_mutant(source: str, rng: random.Random) -> str:
    """Apply one to three character edits; a truncation ends them."""
    chars = list(source)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        i = rng.randrange(len(chars) + 1)
        if op == 0 and i < len(chars):
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(ALPHABET))
        elif op == 2 and i < len(chars):
            chars[i] = rng.choice(ALPHABET)
        elif op == 3 and i < len(chars):
            chars.insert(i, chars[i])
        elif op == 4:
            return "".join(chars[:i])
    return "".join(chars)


_PIECES = re.compile(r"[\w.]+|\s+|\S")


def token_mutant(source: str, rng: random.Random) -> str:
    """Delete, duplicate, swap, replace or insert one or two tokens.

    Tokens are approximated by words and single symbols, independently
    of the lexer under test, so every front end sees the same mutants.
    """
    pieces = _PIECES.findall(source)
    for _ in range(rng.randint(1, 2)):
        solid = [k for k, piece in enumerate(pieces) if not piece.isspace()]
        if not solid:
            break
        k = rng.choice(solid)
        op = rng.randrange(5)
        if op == 0:
            del pieces[k]
        elif op == 1:
            pieces.insert(k, pieces[k])
        elif op == 2 and k + 1 < len(pieces):
            pieces[k], pieces[k + 1] = pieces[k + 1], pieces[k]
        elif op == 3:
            pieces[k] = rng.choice(VOCABULARY)
        else:
            pieces.insert(k, rng.choice(VOCABULARY) + " ")
    return "".join(pieces)


def corpus() -> dict[str, str]:
    """The golden's inputs by name, in a fixed order."""
    bases = {f"routine:{name}": bench.source
             for name, bench in all_benchmarks().items()}
    for grade in GRADES:
        for seed in range(PER_GRADE):
            bases[f"{grade}:{seed}"] = generate(seed, grade=grade).source
    inputs = dict(EDGE_CASES)
    for key, source in bases.items():
        inputs[key] = source
        rng = random.Random(key)
        for k in range(MUTANTS_PER_KIND):
            inputs[f"{key}/byte{k}"] = byte_mutant(source, rng)
            inputs[f"{key}/token{k}"] = token_mutant(source, rng)
    return inputs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _error(error: Exception) -> str:
    return f"{type(error).__name__} {error.line}:{error.col}"


def frontend_record(source: str) -> str:
    """``ok <digest>``, ``<Error> <line>:<col> <digest>`` for a parse
    error (the digest covers the token stream), ``LexError <line>:<col>``,
    or ``crash <exception type>``."""
    try:
        tokens = tokenize(source)
    except ReproError as error:
        return _error(error)
    except Exception as error:  # the record of a front-end crash
        return f"crash {type(error).__name__}"
    stream = "\n".join(f"{t.kind} {t.value!r} {t.line}:{t.col}"
                       for t in tokens)
    try:
        tree = parse_program(source)
    except ReproError as error:
        return f"{_error(error)} {_digest(stream + _error(error))}"
    except Exception as error:
        return f"crash {type(error).__name__}"
    return "ok " + _digest(stream + "\n" + repr(tree))


def _write_golden(commit: str) -> None:
    """Record the current front end's output as the golden."""
    inputs = corpus()
    data = {
        "commit": commit,
        "inputs": {key: _digest(source) for key, source in inputs.items()},
        "records": {key: frontend_record(source)
                    for key, source in inputs.items()},
        "divergences": {},
    }
    GOLDEN.write_text(json.dumps(data, indent=0, ensure_ascii=True) + "\n")


# ----------------------------------------------------------------------
# The golden
# ----------------------------------------------------------------------
#: The two deliberate changes since the golden's commit: inputs that
#: crashed the front end now raise LexError, and the EOF token after a
#: trailing ``//`` comment sits after the comment, not at its start.
DIVERGENCE_REASONS = ("crash", "eof-after-line-comment")


def test_frontend_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    records, divergences = golden["records"], golden["divergences"]
    inputs = corpus()
    changed = [key for key, source in inputs.items()
               if _digest(source) != golden["inputs"].get(key)]
    assert list(inputs) == list(records) and not changed, \
        f"the corpus changed, not the front end: {changed[:5]}"
    mismatches = []
    for key, source in inputs.items():
        want = records[key]
        if key in divergences:
            want, reason = divergences[key]
            assert reason in DIVERGENCE_REASONS, (key, reason)
            if reason == "crash":
                assert records[key].startswith("crash "), key
        got = frontend_record(source)
        if got != want:
            mismatches.append(f"{key}: want {want}, got {got}; "
                              f"input {source!r}")
    assert not mismatches, "\n".join(mismatches[:10])


# ----------------------------------------------------------------------
# Mutation campaigns
# ----------------------------------------------------------------------
def _small_sources() -> list[str]:
    return ([get_benchmark(name).source
             for name in ("check_data", "piksrt", "fft", "line")]
            + [generate(seed, grade="small").source for seed in range(8)])


def test_minic_mutants_raise_only_repro_errors():
    sources = _small_sources()
    failures = []
    for seed in range(1200):
        rng = random.Random(seed)
        mutate = byte_mutant if seed % 2 else token_mutant
        mutant = mutate(rng.choice(sources), rng)
        try:
            compile_source(mutant)
        except ReproError:
            pass
        except Exception as error:
            failures.append(f"seed {seed}: {error!r} compiling {mutant!r}")
    assert not failures, "\n".join(failures)


#: Valid constraints over check_data's count variables.
CONSTRAINTS = (
    "x2 >= 1 x1", "x2 <= 10 x1", "(x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0)",
    "x3 = x8", "check_data.x4 <= 2 * x1", "x6 < 3x2 + 1", "-x2 + d1 == 0",
)

#: What the constraint mutator inserts.
CONSTRAINT_ALPHABET = string.digits + "xdf.&|()=<>+-* _²٣é"


def _constraint_mutant(text: str, rng: random.Random) -> str:
    if rng.random() < 0.2:
        return rng.choice(("", " ", "9" * 400 + " x1 >= 0", "x1 >= 1e5",
                           "x99 = 1", "nobody.x1 = 1", "x1.f1 = 1",
                           "x1 = 1 | ", "((x1 = 1)"))
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(chars):
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(CONSTRAINT_ALPHABET))
        elif i < len(chars):
            chars[i] = rng.choice(CONSTRAINT_ALPHABET)
    return "".join(chars)


def test_constraint_mutants_raise_only_repro_errors():
    bench = get_benchmark("check_data")
    failures = []
    for seed in range(500):
        rng = random.Random(seed)
        text = _constraint_mutant(rng.choice(CONSTRAINTS), rng)
        analysis = bench.make_analysis(with_constraints=False)
        try:
            analysis.add_constraint(text)
            analysis.set_tasks()
        except ReproError:
            pass
        except Exception as error:
            failures.append(f"seed {seed}: {error!r} on constraint "
                            f"{text!r}")
    assert not failures, "\n".join(failures)


_PROGRAM = generate(3, grade="tiny")

#: Valid job bodies.
JOB_BODIES = (
    {"benchmark": "check_data"},
    {"benchmark": "piksrt", "machine": "i960kb", "backend": "exact",
     "priority": 2, "deadline_seconds": 30, "set_timeout": 5.0,
     "max_iterations": 100000},
    {"name": "tiny", "source": _PROGRAM.source, "entry": _PROGRAM.entry,
     "bounds": [list(b) for b in _PROGRAM.loop_bounds]},
    {"source": _PROGRAM.source, "entry": _PROGRAM.entry,
     "auto_bounds": True, "constraints": [["x1 <= 1", None]]},
)

#: Values the job mutator puts into a field.
JOB_VALUES = (
    None, True, 0, -1, 7, 2.5, -0.5, 10 ** 30, math.inf, -math.inf,
    math.nan, "", "x", "check_data", "no_such_benchmark", "f", "exact",
    "i960kb", [], {}, ["check_data"], [None], [[None]], [["f", 2, 1]],
    [["f", "2", 1, 2]], [[1, [2], 1, 2]], [["x1 = 1"]], [[1, None]],
    [["x1 = 1", 5]], {"trace_id": "zz"}, [["f", None, 1, math.inf]],
)


def _job_mutant(rng: random.Random) -> dict:
    body = dict(rng.choice(JOB_BODIES))
    fields = sorted(JobSpec.__dataclass_fields__) + ["bogus"]
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(fields)
        if rng.random() < 0.2:
            body.pop(key, None)
        else:
            body[key] = rng.choice(JOB_VALUES)
    return body


def test_job_spec_mutants_raise_only_repro_errors():
    failures = []
    executed = 0
    for seed in range(500):
        rng = random.Random(seed)
        body = _job_mutant(rng)
        try:
            job = JobSpec.from_dict(body).to_analysis_job()
        except ReproError:
            continue
        except Exception as error:
            failures.append(f"seed {seed}: {error!r} admitting {body!r}")
            continue
        if executed >= 100:
            continue
        executed += 1
        try:
            execute_job((job, None, 5.0, 100000, False))
        except Exception as error:
            failures.append(f"seed {seed}: {error!r} running {body!r}")
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: test_frontend_mutants.py --write COMMIT")
    _write_golden(sys.argv[2])
