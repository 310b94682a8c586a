"""Command-line interface.

Subcommands: class-info, orbit, equiv, fiber-count, stable-length, construct,
verify, components, theorem1-report.  Exit codes: 0 success, 1 falsification
found, 2 limits exceeded (every row unknown), 3 usage error (invalid input to
any command), 4 program fault (never a falsification).

Each exit code is decided in one place.  Every command returns
``reports.exit_code`` over the rows of its report (the m_C values of
class-info; one row for orbit, equiv and fiber-count; none for construct): 1
when a falsification was found, 2 when a limit left every row undecided, 0
otherwise.  ``_Command.invoke`` reads a ``ValueError`` raised anywhere in a
command as invalid input (exit 3); the library raises it only for that, so a
bug that surfaces as a builtin ``ValueError`` is also reported as a usage
error.  ``main`` turns every other exception, ``LimitExceededError`` aside,
into one ``internal error`` line (exit 4), so no fault can exit 1.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click

from . import constructions as cons
from . import reports
from .class_metrics import DEFAULT_SEARCH_DEPTH, compute_class_metrics
from .orbits import (DEFAULT_LIMITS, FiberSpec, SearchLimits, are_equivalent, count_orbits_in_fiber,
                     enumerate_orbit, stable_length_scan)
from .perms import LimitExceededError, Perm, format_cycle_type, parse_cycle_type
from .reports import RunConfig, make_report
from .words import Factorization, TypeVector


class _Command(click.Command):
    """A command whose invalid input, wherever it is detected, is a usage
    error reported with this command's own usage line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.option("--max-states", type=int, default=DEFAULT_LIMITS.max_states, show_default=True,
              help="State cap for orbit and equivalence searches (at least 2).")
@click.option("--max-fiber", type=int, default=DEFAULT_LIMITS.max_fiber, show_default=True,
              help="Word cap for fiber enumeration.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for interface compatibility; results never depend on it.")
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for byte-identical result caching.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv", "text"]),
              default="json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for sampled checks; recorded in every report.")
@click.pass_context
def cli(ctx: click.Context, max_states: int, max_fiber: int, workers: int,
        cache_dir: str | None, output_format: str, seed: int) -> None:
    """Compute with permutation factorizations: orbits of the braid moves,
    fiber component counts, stable words, and class constants."""
    # --workers is checked and otherwise ignored: every search runs in-process.
    if workers < 1:
        raise click.UsageError("worker count must be positive")
    if cache_dir is not None:  # made before anything is computed
        try:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise click.UsageError(f"cannot use --cache-dir: {exc}") from None
    ctx.obj = RunConfig(limits=SearchLimits(max_states=max_states, max_fiber=max_fiber),
                        cache_dir=cache_dir, output_format=output_format, seed=seed)


def _finish(cfg: RunConfig, command: str, query: dict, compute) -> int:
    """Cache wrapper: emit the (possibly cached) payload and return the exit code."""
    key = reports.cache_key(command, query, cfg)
    hit = reports.cache_get(cfg, key)
    if hit is not None:
        payload, code = hit
        click.echo(payload, nl=False)
        return code
    body, code = compute()
    payload = reports.emit(make_report(command, query, cfg, body), cfg)
    reports.cache_put(cfg, key, payload, code)
    click.echo(payload, nl=False)
    return code


@cli.command("class-info")
@click.option("--d", "degree", type=int, required=True)
@click.option("--class", "class_text", required=True, help="Cycle type, e.g. 2,1,1")
@click.option("--limit", type=int, default=DEFAULT_SEARCH_DEPTH, show_default=True,
              help="Depth limit for the minimal-word searches.")
@click.pass_obj
def class_info_cmd(cfg: RunConfig, degree: int, class_text: str, limit: int) -> int:
    """Class constants: order, size, fixed points, minimal words, bound."""
    ct = parse_cycle_type(class_text, degree)
    query = {"d": degree, "class": format_cycle_type(ct), "limit": limit}

    def compute():
        metrics = compute_class_metrics(degree, ct, limit=limit)
        searches = [r for r in (metrics.min_word, metrics.min_word_fixing) if r is not None]
        return reports.class_info_body(metrics), reports.exit_code([r.known for r in searches])

    return _finish(cfg, "class-info", query, compute)


@cli.command("orbit")
@click.option("--d", "degree", type=int, required=True)
@click.option("--word", "word_text", required=True)
@click.option("--conj", is_flag=True, help="Also close under simultaneous conjugation.")
@click.pass_obj
def orbit_cmd(cfg: RunConfig, degree: int, word_text: str, conj: bool) -> int:
    """Enumerate the move orbit of a word."""
    word = Factorization.parse_word(degree, word_text)
    query = {"d": degree, "word": reports.word_to_list(word), "conj": conj}

    def compute():
        report = enumerate_orbit(word, cfg.limits, conjugation_quotient=conj)
        body = {
            "orbit_size": report.size,
            "complete": report.complete,
            "canonical": None if report.canonical is None else reports.word_to_list(report.canonical),
            "states_explored": report.states_explored,
            "limit_hit": report.limit_hit,
        }
        return body, reports.exit_code([report.complete])

    return _finish(cfg, "orbit", query, compute)


@cli.command("equiv")
@click.option("--d", "degree", type=int, required=True)
@click.option("--word1", required=True)
@click.option("--word2", required=True)
@click.pass_obj
def equiv_cmd(cfg: RunConfig, degree: int, word1: str, word2: str) -> int:
    """Decide move equivalence of two words, with a certificate on yes."""
    w1 = Factorization.parse_word(degree, word1)
    w2 = Factorization.parse_word(degree, word2)
    query = {"d": degree, "word1": reports.word_to_list(w1), "word2": reports.word_to_list(w2)}

    def compute():
        eq = are_equivalent(w1, w2, cfg.limits)
        body = {
            "result": eq.status,
            "certificate": reports.moves_to_list(eq.certificate),
            "states_explored": eq.states_explored,
            "reason": eq.reason,
        }
        return body, reports.exit_code([eq.status != "unknown"])

    return _finish(cfg, "equiv", query, compute)


@cli.command("fiber-count")
@click.option("--d", "degree", type=int, required=True)
@click.option("--type", "type_text", required=True, help='Type vector, e.g. "2,1:4"')
@click.option("--product", "product_text", default="()", show_default=True)
@click.option("--full-group", "constraint", flag_value="full_group",
              help="Only words generating the full symmetric group.")
@click.option("--transitive", "constraint", flag_value="transitive",
              help="Only words acting transitively.")
@click.option("--unconstrained", "constraint", flag_value="none", default=True, hidden=True)
@click.option("--conj", is_flag=True, help="Quotient by simultaneous conjugation.")
@click.pass_obj
def fiber_count_cmd(cfg: RunConfig, degree: int, type_text: str, product_text: str,
                    constraint: str, conj: bool) -> int:
    """Enumerate a (type, product) fiber and count its move orbits."""
    tv = TypeVector.parse(type_text, degree)
    product = Perm.parse(product_text, degree)
    spec = FiberSpec(degree, tv, product, constraint, conj)
    query = {"d": degree, "type": str(tv), "product": str(product),
             "constraint": constraint, "conj": conj}

    def compute():
        report = count_orbits_in_fiber(spec, cfg.limits)
        body = {
            "fiber_size": report.fiber_size,
            "orbit_count": report.orbit_count,
            "complete": report.complete,
            "limit_hit": report.limit_hit,
            "representatives": [reports.word_to_list(r) for r in report.representatives],
        }
        return body, reports.exit_code([report.complete])

    return _finish(cfg, "fiber-count", query, compute)


@cli.command("stable-length")
@click.option("--d", "degree", type=int, required=True)
@click.option("--class", "class_text", required=True)
@click.option("--product", "product_text", default="()", show_default=True)
@click.option("--from", "n_from", type=int, required=True)
@click.option("--to", "n_to", type=int, required=True)
@click.pass_obj
def stable_length_cmd(cfg: RunConfig, degree: int, class_text: str, product_text: str,
                      n_from: int, n_to: int) -> int:
    """Orbit counts of full-group fibers with n class factors, n in a range."""
    ct = parse_cycle_type(class_text, degree)
    product = Perm.parse(product_text, degree)
    query = {"d": degree, "class": format_cycle_type(ct), "product": str(product),
             "from": n_from, "to": n_to}

    def compute():
        rows = stable_length_scan(degree, ct, product, n_from, n_to, cfg.limits)
        body = {
            "all_rows_unknown": all(not r.complete for r in rows),
            "rows": reports.scan_rows_to_dicts(rows),
        }
        return body, reports.exit_code([r.complete for r in rows])

    return _finish(cfg, "stable-length", query, compute)


ELEMENTS = ("h", "sbar", "c", "y", "z", "hC")


@cli.command("construct")
@click.option("--d", "degree", type=int, required=True)
@click.option("--class", "class_text", default=None,
              help="Required for every element except h.")
@click.option("--element", type=click.Choice(ELEMENTS), required=True)
@click.option("--i", "point_i", type=int, default=1, show_default=True)
@click.option("--j", "point_j", type=int, default=2, show_default=True)
@click.option("--k", "stage_k", type=int, default=None,
              help="Stage for element y (defaults to the degree).")
@click.pass_obj
def construct_cmd(cfg: RunConfig, degree: int, class_text: str | None, element: str,
                  point_i: int, point_j: int, stage_k: int | None) -> int:
    """Build one of the named words and report its length, product, and type."""
    # The query names only the options the element reads.
    query = {"d": degree, "class": class_text, "element": element}
    if element in ("sbar", "z"):
        query.update(i=point_i, j=point_j)
    elif element == "y":
        query["k"] = stage_k

    def compute():
        if element == "h":
            word = cons.ladder_cube(degree)
        else:
            if class_text is None:
                raise ValueError(f"element {element} needs --class")
            ctx = cons.ConstructionContext.create(degree, parse_cycle_type(class_text, degree))
            if element == "sbar":
                word = cons.transposition_word(ctx, point_i, point_j)
            elif element == "c":
                word = cons.square_ladder(ctx)
            elif element == "y":
                word = cons.centralizer_invariant(ctx, degree if stage_k is None else stage_k)
            elif element == "z":
                word = cons.embedded_transposition(ctx, point_i, point_j)
            else:
                word = cons.embedded_ladder_cube(ctx)
        body = {
            "word": reports.word_to_list(word),
            "length": len(word),
            "alpha": str(word.product()),
            "tau": str(word.type_vector()),
        }
        return body, reports.exit_code([])

    return _finish(cfg, "construct", query, compute)


CLAIMS = ("1", "2", "3", "5", "lengths", "relations")


@cli.command("verify")
@click.option("--d", "degree", type=int, required=True)
@click.option("--class", "class_text", default=None)
@click.option("--claim", type=click.Choice(CLAIMS), required=True)
@click.option("--samples", type=int, default=cons.DEFAULT_SAMPLES, show_default=True,
              help="Sample count for the sampled claims (5, relations).")
@click.pass_obj
def verify_cmd(cfg: RunConfig, degree: int, class_text: str | None, claim: str,
               samples: int) -> int:
    """Certify a structural claim with replayable move certificates.

    Claims: 1 invariance of the embedded letter under the centralizer of its
    product; 2 one semigroup element per transposition in its conjugation
    orbit; 3 the transposition-letter relations between embedded letters;
    5 rewriting a long word to end in the stable block; lengths exact length
    formulas; relations the exchange law on random short words.
    """
    query = {"d": degree, "class": class_text, "claim": claim, "samples": samples}

    def compute():
        if claim in ("1", "2", "3"):
            if class_text is None:
                raise ValueError(f"claim {claim} needs --class")
            ctx = cons.ConstructionContext.create(degree, parse_cycle_type(class_text, degree))
            check = {
                "1": cons.check_centralizer_invariance,
                "2": cons.check_conjugation_classes,
                "3": cons.check_braid_relations,
            }[claim]
            report = check(ctx, cfg.limits)
        elif claim == "5":
            if class_text is None:
                raise ValueError("claim 5 needs --class")
            report = cons.check_stable_tail(degree, parse_cycle_type(class_text, degree),
                                            cfg.limits, samples=samples, seed=cfg.seed)
        elif claim == "lengths":
            ct = parse_cycle_type(class_text, degree) if class_text else None
            report = cons.check_length_formulas(degree, ct)
        else:
            report = cons.check_defining_relation(degree, cfg.limits,
                                                  samples=samples, seed=cfg.seed)
        decided = [row.status != "unknown" for row in report.rows]
        return reports.claim_report_body(report), reports.exit_code(decided, report.falsified)

    return _finish(cfg, "verify", query, compute)


@cli.command("components")
@click.option("--d", "degree", type=int, required=True)
@click.option("--b", "length", type=int, required=True, help="Number of branch points (word length).")
@click.option("--type", "type_text", default=None,
              help="Restrict to one monodromy type; default scans all types of this length.")
@click.option("--full-group", is_flag=True,
              help="Count full-symmetric-monodromy components (no conjugation quotient by default).")
@click.option("--transitive/--no-transitive", "transitive", default=True, show_default=True,
              help="Restrict to connected coverings.")
@click.option("--conj/--no-conj", "conj", default=None,
              help="Quotient by conjugation (default: on unless --full-group).")
@click.pass_obj
def components_cmd(cfg: RunConfig, degree: int, length: int, type_text: str | None,
                   full_group: bool, transitive: bool, conj: bool | None) -> int:
    """Count irreducible component classes of length-b identity-product fibers."""
    if conj is None:
        conj = not full_group
    tv = TypeVector.parse(type_text, degree) if type_text else None
    query_obj = reports.ComponentQuery(degree, length, tv, full_group, transitive, conj)
    query = {"d": degree, "b": length, "type": str(tv) if tv else "all",
             "galois_full": full_group, "transitive_only": transitive, "conj": conj}

    def compute():
        body = reports.count_components(query_obj, cfg.limits)
        return body, reports.exit_code([row["complete"] for row in body["rows"]])

    return _finish(cfg, "components", query, compute)


@cli.command("theorem1-report")
@click.option("--d", "degree", type=int, required=True)
@click.option("--class", "class_text", required=True)
@click.option("--from", "scan_from", type=int, default=reports.SCAN_FROM, show_default=True)
@click.option("--to", "scan_to", type=int, default=reports.SCAN_TO, show_default=True)
@click.option("--limit", "search_limit", type=int, default=DEFAULT_SEARCH_DEPTH, show_default=True)
@click.pass_obj
def theorem_report_cmd(cfg: RunConfig, degree: int, class_text: str,
                       scan_from: int, scan_to: int, search_limit: int) -> int:
    """Stability bound for a class plus an orbit-count scan; exits 1 if any
    complete row at or past the bound has more than one orbit."""
    ct = parse_cycle_type(class_text, degree)
    query = {"d": degree, "class": format_cycle_type(ct),
             "from": scan_from, "to": scan_to, "limit": search_limit}

    def compute():
        body = reports.theorem_report(degree, ct, cfg.limits, scan_from, scan_to, search_limit)
        return body, reports.exit_code([row["complete"] for row in body["rows"]],
                                       body["falsification_found"])

    return _finish(cfg, "theorem1-report", query, compute)


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    try:
        result = cli.main(args=argv, prog_name="hurwitz", standalone_mode=False)
        return result if isinstance(result, int) else 0
    except click.UsageError as exc:
        exc.show()
        return 3
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 3
    except LimitExceededError as exc:
        click.echo(f"limit exceeded: {exc}", err=True)
        return 2
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
