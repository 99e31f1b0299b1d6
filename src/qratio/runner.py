"""Scenario execution: dispatch, output files, and the run manifest.

Every run writes its data files (CSV/JSON/binary per FORMATS.md) plus a
``manifest.json`` with the tool version, config hash, wall time, drift
summaries and per-file checksums.  Each output is streamed to its file and
to SHA-256 in the same chunks, binary ones a block of rows at a time.  The
manifest is written atomically after all outputs; repeated runs of the
same config produce byte-identical data files (the manifest's wall time is
the only volatile field).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .catalog import experiment_lookup
from .constants import BOHR_MAGNETON, EV, HBAR
from .core import (GaussianPacket, doubling_time, quantum_ratio)
from .errors import ConfigError, DomainError
from .grid import (BLOCK_BYTES, MAX_APPLICATIONS, Grid, ceiling_dt,
                   check_band, field_array_bytes, initialize_gaussian)
from .spin import SpinCoherentState, approximate_distribution, distribution
from . import stern_gerlach as sg
from . import talbot as tb
from . import tunneling as tn
from . import decoherence as dec


@dataclass
class RunManifest:
    path: str
    config_hash: str
    outputs: list
    wall_time_s: float


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))   # shortest round-trip form, numpy included
    return str(x)


def _csv_bytes(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue().encode()


def _json_bytes(obj):
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"non-finite value in a JSON output ({exc})") from None
    return (text + "\n").encode()


def _pgm_bytes(image):
    """8-bit binary PGM of a non-negative 2D array, max-normalized.  The
    pixels are quantized as they are written, after ``run``'s errstate has
    closed, so the extremes are quantized here first: every pixel lies
    between theirs, and a value that would overflow or not cast (a
    non-finite one, or one near the float maximum) is refused before any
    file is written."""
    arr = np.asarray(image, dtype=float)
    peak = arr.max()
    if not peak <= 0:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                np.round(255.0 * np.array([arr.min(), peak]) / peak
                         ).astype(np.uint8)
        except FloatingPointError:
            raise DomainError("a PGM image holds a value it cannot scale "
                              "to 8 bits (non-finite or near the float "
                              "maximum)") from None
    return _pgm_chunks(arr, peak)


def _pgm_chunks(arr, peak):
    """The header, then the pixels of a few rows at a time."""
    yield f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    step = max(1, BLOCK_BYTES // (8 * max(1, arr.shape[1])))
    for i in range(0, len(arr), step):
        rows = arr[i:i + step]
        yield np.zeros(rows.shape, dtype=np.uint8) if peak <= 0 else \
            np.round(255.0 * rows / peak).astype(np.uint8)


# the band histogram's canvas, in SVG user units
SVG_WIDTH, SVG_HEIGHT = 640, 360


def _svg_bands(m_values, weights):
    """Minimal vector rendering of a band histogram."""
    peak = max(weights.max(), 1e-300)
    n = len(m_values)
    bw = SVG_WIDTH / max(n, 1)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
             f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">']
    parts.append(f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>')
    for i, w in enumerate(weights):
        h = (SVG_HEIGHT - 20) * float(w) / peak
        x = i * bw
        parts.append(f'<rect x="{x:.2f}" y="{SVG_HEIGHT - 10 - h:.2f}" '
                     f'width="{max(bw - 1, 0.5):.2f}" height="{h:.2f}" '
                     f'fill="steelblue"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# ---------------------------------------------------------------------------
# per-kind runners: each returns (summary, files, drift)


def _run_ratio(cfg):
    p = cfg.section("ratio")
    if p["experiment"] is not None:
        rec = experiment_lookup(p["experiment"])
        rq, l0, name = rec.quantum_range_Rq, rec.size_L0, rec.name
    elif p["Rq"] is not None and p["L0"] is not None:
        rq, l0, name = p["Rq"], p["L0"], "custom"
    else:
        raise ConfigError("[ratio] needs either 'experiment' or both "
                          "'Rq' and 'L0'")
    res = quantum_ratio(rq, l0)
    summary = {"name": name, "Rq_m": rq, "L0_m": l0,
               "Q": res.ratio if math.isfinite(res.ratio) else "inf",
               "classification": res.classification.value}
    return summary, {}, {}


def _run_diffuse(cfg):
    rows = []
    for case in cfg.params["case"]:
        t2 = doubling_time(case["mass"], case["width"])
        rows.append((case["name"], case["mass"], case["width"], t2))
    files = {"diffusion_times.csv":
             _csv_bytes(("name", "mass_kg", "width_m", "doubling_time_s"), rows)}
    summary = {"cases": len(rows),
               "doubling_times_s": {r[0]: r[3] for r in rows}}
    return summary, files, {}


def _run_spin_dist(cfg):
    p = cfg.section("spin")
    state = SpinCoherentState.from_j(p["j"], p["theta"])
    exact = distribution(state)
    dist = (approximate_distribution(p["j"], p["theta"])
            if p["mode"] == "approx" else exact)
    rows = [(int(k), float(m), float(w)) for k, m, w in zip(*dist.nonzero())]
    # the exact width in either mode, as classical_limit_diagnostics reads it
    summary = {"j": state.j, "theta": p["theta"], "mode": p["mode"],
               "argmax_m": dist.argmax_m(),
               "relative_width": exact.std_m() / state.j if state.two_j else 0.0,
               "normalization_defect": dist.normalization_defect}
    files = {"distribution.csv": _csv_bytes(("k", "m", "weight"), rows)}
    return summary, files, {}


def _amplitudes(cfg, section, k1, k2):
    """Two-band amplitudes in [-1, 1] (checked before squaring); an absent
    ``k2`` normalizes the pair."""
    c1, c2 = (cfg.section(section)[k] for k in (k1, k2))
    for key, c in ((k1, c1), (k2, c2)):
        if c is not None and not abs(c) <= 1.0:
            raise ConfigError(f"[{section}] '{key}' = {c:g} must lie in [-1, 1]")
    return c1, c2 if c2 is not None else math.sqrt(1.0 - c1 ** 2)


def _sg_grid(cfg):
    g = cfg.section("grid")
    # a single value makes a square grid
    points = g["points"] * 2 if len(g["points"]) == 1 else g["points"]
    return Grid.make(points, (g["extent"], g["extent"]))


def _trace_rows(trace):
    rows = []
    for i, t in enumerate(trace.times):
        pos = trace.mean_position[i]
        mom = trace.mean_momentum[i]
        wid = trace.widths[i]
        rows.append((t, *pos, *mom, *wid, trace.norms[i]))
    return rows


def _check_sg_kick(p, grid):
    """The band rule for the final momentum mu_B b0 t of either band along z
    (grid axis 1): past it the bands alias, and the run would end in
    garbage."""
    check_band(BOHR_MAGNETON * p["b0"] * p["duration"], p["width"],
               grid.spacings[1], f"[sg] gradient 'b0' = {p['b0']:g} T/m over "
               f"'duration' = {p['duration']:g} s")


def _decoupled_steps(p, grid):
    """Strang steps of a decoupled run, in either mode: the spectral
    ceiling's count, rounded up to a multiple of 32 so that its trace
    records 33 evenly spaced samples.  Strang splitting is exact up to a
    global phase in a linear potential, so the count does not set the
    accuracy.  It is compared with the cap as a float, which may be inf,
    before ``ceil``."""
    count = p["duration"] / ceiling_dt(grid, p["mass"])
    if not count <= sg.MAX_STEPS:
        raise DomainError(f"[sg] 'duration' = {p['duration']:g} s takes over "
                          f"{sg.MAX_STEPS} decoupled steps, the cap")
    return 32 * max(1, math.ceil(count / 32))


def _run_sg(cfg):
    p = cfg.section("sg")
    mode = p["mode"]
    if mode == "bands":
        hist = sg.large_spin_bands(
            p["j"], p["theta"], sg.SGFieldConfig(0.0, p["b0"]),
            p["region_length"] / p["speed"], p["drift_time"], p["mass"])
        # the bands that carry weight, as distribution.csv lists them
        nz = np.flatnonzero(hist.weights)
        rows = list(zip(hist.m_values[nz], hist.deflections[nz],
                        hist.weights[nz]))
        m_peak = p["j"] * math.cos(p["theta"])
        files = {"bands.csv": _csv_bytes(("m", "z_m", "weight"), rows),
                 "bands.svg": _svg_bands(hist.m_values[nz], hist.weights[nz])}
        summary = {"j": p["j"], "theta": p["theta"],
                   "mean_deflection_m": hist.mean_deflection(),
                   "classical_m": m_peak, "total_weight": float(hist.weights.sum())}
        return summary, files, {}

    if p["b0"] == 0.0:
        raise DomainError(f"[sg] {mode} needs a nonzero gradient 'b0'")
    grid = _sg_grid(cfg)
    c_up, c_down = _amplitudes(cfg, "sg", "c_up", "c_down")
    steps = _decoupled_steps(p, grid)
    dt = p["duration"] / steps
    pkt = GaussianPacket(0.0, p["width"], 0.0, p["mass"])
    start = initialize_gaussian(grid, (pkt, pkt))
    spinor = sg.SpinorField(start, start, c_up, c_down)

    if mode == "decoupled":
        _check_sg_kick(p, grid)
        # the momentum check divides by the kick mu_B b0 duration, and
        # reads about 1.4e-14 hbar/width of rounding
        kick = BOHR_MAGNETON * abs(p["b0"]) * p["duration"]
        if not kick >= 1e-6 * HBAR / p["width"]:
            raise DomainError(
                f"[sg] gradient 'b0' = {p['b0']:g} T/m over 'duration' = "
                f"{p['duration']:g} s gives a momentum kick of {kick:.3e} "
                "N s, under 1e-6 hbar/'width', where the momentum check "
                "reads rounding")
        config = sg.SGFieldConfig(0.0, p["b0"])
        out = sg.propagate_decoupled(spinor, config, dt, steps,
                                     record_every=steps // 32)
        slope = BOHR_MAGNETON * p["b0"]
        t_end = out.up.time
        tr_u, tr_d = out.up.trace, out.down.trace
        pz_err = max(abs(tr_u.mean_momentum[-1][1] - slope * t_end),
                     abs(tr_d.mean_momentum[-1][1] + slope * t_end)) / (slope * t_end)
        header = ("t_s", "mean_y_m", "mean_z_m", "mean_py", "mean_pz",
                  "width_y_m", "width_z_m", "norm")
        files = {"trace_up.csv": _csv_bytes(header, _trace_rows(tr_u)),
                 "trace_down.csv": _csv_bytes(header, _trace_rows(tr_d))}
        summary = {"duration_s": p["duration"], "steps": steps,
                   "pz_relative_error": pz_err,
                   "band_separation_m": sg.band_separation(
                       config, p["mass"], p["duration"])}
        drift = {"norm_drift_up": out.up.norm_drift,
                 "norm_drift_down": out.down.norm_drift}
        return summary, files, drift

    # coupled-check
    y_max = grid.extents[0] / 2.0
    configs = [sg.SGFieldConfig(r * p["b0"] * y_max, p["b0"])
               for r in p["bias_ratios"]]
    for config in configs:
        config.check_bias(y_max)
        # each Chebyshev expansion applies H more than alpha times
        if not sg.coupled_alpha(spinor, config, p["duration"]) <= MAX_APPLICATIONS:
            raise DomainError(f"[sg] 'duration' = {p['duration']:g} s takes over "
                              f"{MAX_APPLICATIONS} H-applications, the cap")
    # after the caps, which name the cause of a run too long to make
    _check_sg_kick(p, grid)
    # the decoupled potentials read b0 alone: one reference serves every ratio
    decp = sg.propagate_decoupled(spinor, configs[0], dt, steps)
    nu_d, nd_d = decp.densities()
    results = []
    drift = {"norm_drift_decoupled_up": decp.up.norm_drift,
             "norm_drift_decoupled_down": decp.down.norm_drift}
    for r, config in zip(p["bias_ratios"], configs):
        coup, applications = sg.propagate_coupled(spinor, config, p["duration"], 1)
        nu_c, nd_c = coup.densities()
        l1 = float((np.abs(nu_c - nu_d).sum() + np.abs(nd_c - nd_d).sum())
                   * grid.cell_volume)
        transfer = abs(abs(coup.c_up) ** 2 - abs(spinor.c_up) ** 2)
        results.append({"bias_ratio": r, "B0_T": config.field_B0,
                        "steps": applications, "decoupled_steps": steps,
                        "l1_density_deviation": l1,
                        "population_transfer": transfer})
        drift[f"norm_drift_ratio_{r:g}"] = coup.up.norm_drift
    files = {"comparison.csv": _csv_bytes(
        ("bias_ratio", "B0_T", "steps", "l1_density_deviation",
         "population_transfer"),
        [(d["bias_ratio"], d["B0_T"], d["steps"], d["l1_density_deviation"],
          d["population_transfer"]) for d in results])}
    summary = {"results": results, "monotone": all(
        results[i + 1]["l1_density_deviation"] < results[i]["l1_density_deviation"]
        for i in range(len(results) - 1))}
    return summary, files, drift


def _scan(lo, hi, count, key):
    """np.linspace(lo, hi, count), once ``count`` is within the scan cap."""
    if count > tb.MAX_SCAN_POINTS:
        raise DomainError(f"'{key}' = {count} exceeds the cap of "
                          f"{tb.MAX_SCAN_POINTS} scan points")
    return np.linspace(lo, hi, count)


def _barrier_from(cfg):
    b = cfg.section("barrier")
    if b["shape"] == "rectangular":
        return tn.RectangularBarrier(b["height"], b["width"] / 2.0)
    return tn.GaussianBarrier(b["height"], b["sigma"])


def _run_tunnel(cfg):
    p = cfg.section("tunnel")
    barrier = _barrier_from(cfg)
    mass = p["mass"]
    if p["mode"] == "sweep":
        s = cfg.section("sweep")
        energies = _scan(s["energy_min"], s["energy_max"], s["count"], "count")
        t_exact = tn.exact_transmission(barrier, energies, mass, check=False)
        rows = []
        for e, te in zip(energies, t_exact):
            rows.append((e / EV, tn.wkb_transmission(barrier, e, mass), float(te)))
        files = {"transmission.csv": _csv_bytes(("E_eV", "T_wkb", "T_exact"), rows)}
        summary = {"points": len(rows), "barrier_height_eV": barrier.height / EV}
        return summary, files, {}

    beam = cfg.section("beam")
    p0 = math.sqrt(2.0 * mass * beam["energy"])
    a = beam["width"]
    start = beam["start"] if beam["start"] is not None else -3.5 * a
    c1, c2 = _amplitudes(cfg, "beam", "c1", "c2")
    sep = beam["separation"]
    w = beam["transverse_width"]
    scen = tn.TunnelScenario(
        longitudinal=GaussianPacket(start, a, p0, mass),
        transverse=(GaussianPacket(-sep / 2.0, w, 0.0, mass),
                    GaussianPacket(+sep / 2.0, w, 0.0, mass)),
        c1=c1, c2=c2, barrier=barrier)
    points = cfg.section("grid")["points"]
    grid = tn.default_scenario_grid(scen, points_z=points[0], points_x=points[1])
    e = cfg.section("environment")
    env = (dec.EnvironmentSpec(e["wavelength"], e["rate"])
           if p["mode"] == "decohered" else None)
    rep = tn.run_tunnel_scenario(scen, grid=grid, env=env)
    prof_rows = list(zip(rep.transverse_positions, rep.transverse_profile))
    files = {"transverse_profile.csv": _csv_bytes(("x_m", "density"), prof_rows)}
    if rep.final_density is not None:
        files["density.bin"] = field_array_bytes(
            rep.final_density, grid.spacings, grid.origins)
        files["density.pgm"] = _pgm_bytes(np.sqrt(rep.final_density))
    summary = {
        "mode": p["mode"],
        "transmitted_fraction": rep.transmitted_fraction,
        "reflected_fraction": rep.reflected_fraction,
        "flux_sum": rep.flux_sum,
        "oracle_transmission": rep.oracle_transmission,
        "transverse_coherence": rep.transverse_coherence,
        "band_weights": list(rep.band_weights),
        "factorization_error": (None if math.isnan(rep.factorization_error)
                                else rep.factorization_error),
        "tunneling_regime": rep.tunneling_regime,
        "measure_time_s": rep.measure_time,
    }
    return summary, files, {"norm_drift": rep.norm_drift}


def _run_talbot(cfg):
    p = cfg.section("talbot")
    g = cfg.section("grating")
    grating = tb.GratingSpec(g["period"], g["open_fraction"], g["slits"])
    lt = tb.talbot_length(g["period"], p["wavelength"])
    if p["mode"] == "carpet":
        c = cfg.section("carpet")
        carpet = tb.propagate_carpet(grating, p["wavelength"],
                                     c["z_max_talbot"] * lt, c["z_steps"])
        fid = tb.revival_fidelity(carpet, lt)
        shift_corr = tb.correlation_at_shift(carpet, lt, grating.period / 2.0)
        files = {
            "carpet.bin": field_array_bytes(
                carpet.intensity,
                (carpet.z_values[1] - carpet.z_values[0],
                 carpet.x[1] - carpet.x[0]),
                (0.0, carpet.x[0])),
            "carpet.pgm": _pgm_bytes(carpet.intensity),
            "axes.json": _json_bytes({
                "z_values_m": list(carpet.z_values),
                "x_min_m": carpet.x[0], "x_spacing_m": carpet.x[1] - carpet.x[0],
                "points": carpet.x.size}),
        }
        summary = {"talbot_length_m": lt,
                   "revival_fidelity_at_LT": fid,
                   "half_period_shift_correlation_at_LT": shift_corr,
                   "mean_intensity": float(carpet.intensity[0].mean()),
                   "grating": {"period_m": g["period"],
                               "open_fraction": g["open_fraction"],
                               "slits": g["slits"]}}
        return summary, files, {}

    lau = cfg.section("lau")
    config = tb.LauConfig(
        tb.GratingSpec(g["period"], lau["source_open_fraction"], lau["source_slits"]),
        grating,
        tb.GratingSpec(g["period"], lau["scan_open_fraction"], g["slits"]),
        lau["L1_talbot"] * lt, lau["L2_talbot"] * lt, p["wavelength"])
    offsets = _scan(-g["period"], g["period"], lau["offsets"], "offsets")
    scan = tb.lau_scan(config, offsets)
    files = {"scan.csv": _csv_bytes(("offset_m", "flux"),
                                    list(zip(scan.offsets, scan.flux)))}
    summary = {"talbot_length_m": lt, "visibility": scan.visibility(),
               "L2_m": config.distance_L2,
               "grating": {"period_m": g["period"],
                           "open_fraction": g["open_fraction"],
                           "slits": g["slits"]}}
    return summary, files, {}


def _run_decohere(cfg):
    p = cfg.section("decohere")
    ts = cfg.section("timescales")
    if (ts["transit_length"] is None) != (ts["transit_speed"] is None):
        raise ConfigError("[timescales] needs both 'transit_length' and "
                          "'transit_speed', or neither")
    e = cfg.section("environment")
    env = dec.EnvironmentSpec(e["wavelength"], e["rate"])
    gsec = cfg.section("grid")
    grid = Grid.make(gsec["points"], gsec["extent"])
    c1, c2 = _amplitudes(cfg, "decohere", "c1", "c2")
    duration = p["duration_rate"] / env.rate_Lambda
    report = dec.decohered_sg_scenario(
        c1, c2, env, grid, p["width"], p["separation"], p["mass"],
        momentum=p["momentum"], duration=duration, steps=p["steps"])
    # unpacked once for both files; the packed matrix goes before encoding
    rho = report.final_rho.rho
    report.final_rho = None
    files = {
        "coherence.csv": _csv_bytes(("t_s", "coherence"),
                                    list(zip(report.times, report.coherence_history))),
        "purity.csv": _csv_bytes(("t_s", "purity"),
                                 list(zip(report.times, report.purity_history))),
        "rho.bin": field_array_bytes(rho,
                                     (grid.spacings[0], grid.spacings[0]),
                                     (grid.origins[0], grid.origins[0])),
        "rho.pgm": _pgm_bytes(np.abs(rho)),
    }
    summary = {
        "band_intensities": list(report.intensities),
        "pure_band_intensities": list(report.pure_intensities),
        "final_coherence": report.coherence,
        "final_purity": report.purity,
        "duration_s": duration,
    }
    if ts["transit_length"] is not None:
        rep = dec.timescale_report(p["width"], p["separation"], env,
                                   ts["transit_length"], ts["transit_speed"],
                                   p["mass"], ts["tau_diss"])
        files["timescales.json"] = _json_bytes({
            "tau_dec_s": rep.tau_dec, "tau_trans_s": rep.tau_trans,
            "tau_diff_s": rep.tau_diff,
            "tau_diss_s": (None if math.isinf(rep.tau_diss) else rep.tau_diss),
            "cond_times": rep.cond_times, "cond_split": rep.cond_split,
            "cond_wavelength": rep.cond_wavelength, "verdict": rep.verdict})
    return summary, files, {"trace_drift": report.trace_drift}


_RUNNERS = {
    "ratio": _run_ratio,
    "diffuse": _run_diffuse,
    "spin-dist": _run_spin_dist,
    "sg": _run_sg,
    "tunnel": _run_tunnel,
    "talbot": _run_talbot,
    "decohere": _run_decohere,
}


def _unwritable(path, exc):
    return ConfigError(f"cannot write {path!r}: {exc.strerror or exc}")


def _write(path, payload):
    """Write one output, bytes or an iterable of buffers each read before
    the next is taken, and hash it in the same chunks; returns its size
    and SHA-256."""
    digest, size = hashlib.sha256(), 0
    try:
        with open(path, "wb") as fh:
            for chunk in [payload] if isinstance(payload, bytes) else payload:
                fh.write(chunk)
                digest.update(chunk)
                size += memoryview(chunk).nbytes
    except OSError as exc:
        raise _unwritable(path, exc) from None
    return size, digest.hexdigest()


def run(cfg, outdir):
    """Execute a validated config, write outputs + manifest into ``outdir``.

    The scenario runs with numpy's overflow, divide-by-zero and invalid
    operations raised: an input that takes its arithmetic past the float
    range ends in a :class:`DomainError`, not in a warning and a result.
    """
    started = time.time()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            summary, files, drift = _RUNNERS[cfg.kind](cfg)
    except FloatingPointError as exc:
        raise DomainError(f"{cfg.kind} scenario: {exc}; an input lies outside "
                          "the float range this scenario can compute") from None
    files = dict(files)
    files["summary.json"] = _json_bytes(summary)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir!r}: "
                          f"{exc.strerror or exc}") from None

    entries = []
    for name in sorted(files):
        size, digest = _write(os.path.join(outdir, name), files[name])
        entries.append({"name": name, "bytes": size, "sha256": digest})

    manifest = {
        "tool": "qratio",
        "version": __version__,
        "kind": cfg.kind,
        "config_hash": hashlib.sha256(cfg.canonical.encode()).hexdigest(),
        "wall_time_s": time.time() - started,
        "drift": drift,
        "outputs": entries,
    }
    text = _json_bytes(manifest)
    path = os.path.join(outdir, "manifest.json")
    tmp = os.path.join(outdir, ".manifest.json.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise _unwritable(path, exc) from None
    return RunManifest(path, manifest["config_hash"], entries,
                       manifest["wall_time_s"])
