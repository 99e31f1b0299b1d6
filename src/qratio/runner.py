"""Scenario execution: dispatch, output files, and the run manifest.

Every run writes its data files (CSV/JSON/binary per FORMATS.md) plus a
``manifest.json`` with the tool version, config hash, wall time, drift
summaries and per-file checksums.  The manifest is written atomically after
all outputs; repeated runs of the same config produce byte-identical data
files (the manifest's wall time is the only volatile field).
"""

import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .catalog import ExperimentRecord, catalog_lookup
from .constants import BOHR_MAGNETON, EV
from .core import (GaussianPacket, doubling_time, quantum_ratio)
from .errors import ConfigError
from .grid import Grid, field_array_bytes, initialize_gaussian
from .spin import (SpinCoherentState, approximate_distribution,
                   classical_limit_diagnostics, distribution)
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
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _pgm_bytes(image):
    """8-bit binary PGM of a non-negative 2D array, max-normalized."""
    arr = np.asarray(image, dtype=float)
    peak = arr.max()
    pix = np.zeros(arr.shape, dtype=np.uint8) if peak <= 0 else \
        np.round(255.0 * arr / peak).astype(np.uint8)
    head = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    return head + pix.tobytes()


def _svg_bands(m_values, weights, width=640, height=360):
    """Minimal vector rendering of a band histogram."""
    peak = max(weights.max(), 1e-300)
    n = len(m_values)
    bw = width / max(n, 1)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    for i, w in enumerate(weights):
        h = (height - 20) * float(w) / peak
        x = i * bw
        parts.append(f'<rect x="{x:.2f}" y="{height - 10 - h:.2f}" '
                     f'width="{max(bw - 1, 0.5):.2f}" height="{h:.2f}" '
                     f'fill="steelblue"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# ---------------------------------------------------------------------------
# per-kind runners: each returns (summary, files, drift)


def _run_ratio(cfg, threads):
    p = cfg.section("ratio")
    if p["experiment"] is not None:
        rec = catalog_lookup(p["experiment"])
        if not isinstance(rec, ExperimentRecord):
            raise ConfigError(f"catalog entry {p['experiment']!r} is not an "
                              "experiment record")
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


def _run_diffuse(cfg, threads):
    rows = []
    for case in cfg.params["case"]:
        t2 = doubling_time(case["mass"], case["width"])
        rows.append((case["name"], case["mass"], case["width"], t2))
    files = {"diffusion_times.csv":
             _csv_bytes(("name", "mass_kg", "width_m", "doubling_time_s"), rows)}
    summary = {"cases": len(rows),
               "doubling_times_s": {r[0]: r[3] for r in rows}}
    return summary, files, {}


def _run_spin_dist(cfg, threads):
    p = cfg.section("spin")
    state = SpinCoherentState.from_j(p["j"], p["theta"], p["phi"])
    if p["mode"] == "approx":
        dist = approximate_distribution(p["j"], p["theta"], p["phi"])
    else:
        dist = distribution(state)
    m = dist.m_values
    keep = dist.weights > 0.0
    rows = [(int(k), float(mv), float(w))
            for k, mv, w in zip(np.nonzero(keep)[0], m[keep], dist.weights[keep])]
    diag = classical_limit_diagnostics(p["j"], p["theta"]) if state.two_j >= 1 else None
    summary = {"j": state.j, "theta": p["theta"], "phi": p["phi"],
               "mode": p["mode"],
               "argmax_m": dist.argmax_m(),
               "relative_width": diag.relative_width if diag else 0.0,
               "normalization_defect": dist.normalization_defect}
    files = {"distribution.csv": _csv_bytes(("k", "m", "weight"), rows)}
    return summary, files, {}


_SG_POINTS = (256, 256)
_SG_EXTENT = 1e-6   # m


def _sg_grid(cfg):
    g = cfg.params.get("grid", {})
    points = g.get("points") or _SG_POINTS
    extent = g.get("extent") or _SG_EXTENT
    if len(points) == 1:
        points = (points[0], points[0])
    return Grid.make(points, (extent, extent))


def _trace_rows(trace):
    rows = []
    for i, t in enumerate(trace.times):
        pos = trace.mean_position[i]
        mom = trace.mean_momentum[i]
        wid = trace.widths[i]
        rows.append((t, *pos, *mom, *wid, trace.norms[i]))
    return rows


def _run_sg(cfg, threads):
    p = cfg.section("sg")
    mode = p["mode"]
    if mode == "bands":
        needed = ("j", "theta", "b0", "region_length", "speed", "mass")
        missing = [k for k in needed if p[k] is None]
        if missing:
            raise ConfigError(f"[sg] bands mode needs keys {missing}")
        config = sg.SGFieldConfig(p["B0"] or 0.0, p["b0"], p["region_length"],
                                  p["speed"])
        hist = sg.large_spin_bands(p["j"], p["theta"], p["phi"], config,
                                   p["drift_time"], p["mass"])
        rows = list(zip(hist.m_values, hist.deflections, hist.weights))
        m_peak = p["j"] * math.cos(p["theta"])
        files = {"bands.csv": _csv_bytes(("m", "z_m", "weight"), rows),
                 "bands.svg": _svg_bands(hist.m_values, hist.weights)}
        summary = {"j": p["j"], "theta": p["theta"],
                   "mean_deflection_m": hist.mean_deflection(),
                   "classical_m": m_peak, "total_weight": float(hist.weights.sum())}
        return summary, files, {}

    for key in ("mass", "b0", "width", "duration"):
        if p[key] is None:
            raise ConfigError(f"[sg] {mode} mode needs key '{key}'")
    grid = _sg_grid(cfg)
    pkt = GaussianPacket(0.0, p["width"], 0.0, p["mass"])
    c_up = p["c_up"] if p["c_up"] is not None else 1.0 / math.sqrt(2.0)
    c_down = p["c_down"] if p["c_down"] is not None else math.sqrt(max(1.0 - c_up ** 2, 0.0))
    up = initialize_gaussian(grid, (pkt, pkt))
    down = initialize_gaussian(grid, (pkt, pkt))
    spinor = sg.SpinorField(up, down, c_up, c_down)

    if mode == "decoupled":
        b_bias = p["B0"] if p["B0"] is not None else 0.0
        config = sg.SGFieldConfig(b_bias, p["b0"], p["duration"], 1.0)
        steps = p["steps"] or 200
        dt = p["duration"] / steps
        rec = p["record_every"] or max(1, steps // 32)
        out = sg.propagate_decoupled(spinor, config, dt, steps, z_axis=1,
                                     record_every=rec, workers=threads)
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
                       config, p["mass"], 0.0)}
        drift = {"norm_drift_up": out.up.norm_drift,
                 "norm_drift_down": out.down.norm_drift}
        return summary, files, drift

    # coupled-check
    if p["B0"] is None and not p["bias_ratios"]:
        raise ConfigError("[sg] coupled-check needs 'B0' or 'bias_ratios'")
    y_max = grid.extents[0] / 2.0
    ratios = p["bias_ratios"] or (abs(p["B0"]) / (p["b0"] * y_max),)
    results = []
    drift = {}
    for r in ratios:
        config = sg.SGFieldConfig(r * p["b0"] * y_max, p["b0"], p["duration"], 1.0)
        steps = int(math.ceil(p["duration"] / sg.max_coupled_dt(config)))
        dt = p["duration"] / steps
        coup, pops = sg.propagate_coupled(spinor, config, dt, steps,
                                          workers=threads)
        decp = sg.propagate_decoupled(spinor, config, dt, steps, z_axis=1,
                                      workers=threads)
        nu_c, nd_c = coup.densities()
        nu_d, nd_d = decp.densities()
        l1 = float((np.abs(nu_c - nu_d).sum() + np.abs(nd_c - nd_d).sum())
                   * grid.cell_volume)
        transfer = abs(abs(coup.c_up) ** 2 - abs(spinor.c_up) ** 2)
        results.append({"bias_ratio": r, "B0_T": config.field_B0,
                        "steps": steps, "l1_density_deviation": l1,
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


def _barrier_from(cfg):
    b = cfg.section("barrier")
    if b["shape"] == "rectangular":
        if b["width"] is None:
            raise ConfigError("[barrier] rectangular needs 'width' (full width)")
        return tn.RectangularBarrier(b["height"], b["width"] / 2.0)
    if b["sigma"] is None:
        raise ConfigError("[barrier] gaussian needs 'sigma'")
    return tn.GaussianBarrier(b["height"], b["sigma"])


def _run_tunnel(cfg, threads):
    p = cfg.section("tunnel")
    barrier = _barrier_from(cfg)
    mass = p["mass"]
    if p["mode"] == "sweep":
        s = cfg.section("sweep")
        if s["energy_min"] is None or s["energy_max"] is None:
            raise ConfigError("[sweep] needs energy_min and energy_max")
        energies = np.linspace(s["energy_min"], s["energy_max"], s["count"])
        t_exact = tn.exact_transmission(barrier, energies, mass, check=False)
        rows = []
        for e, te in zip(energies, t_exact):
            rows.append((e / EV, tn.wkb_transmission(barrier, e, mass), float(te)))
        files = {"transmission.csv": _csv_bytes(("E_eV", "T_wkb", "T_exact"), rows)}
        summary = {"points": len(rows), "barrier_height_eV": barrier.max_height / EV}
        return summary, files, {}

    beam = cfg.section("beam")
    for key in ("energy", "width", "transverse_width", "separation"):
        if beam[key] is None:
            raise ConfigError(f"[beam] needs key '{key}'")
    p0 = math.sqrt(2.0 * mass * beam["energy"])
    a = beam["width"]
    start = beam["start"] if beam["start"] is not None else -3.5 * a
    c1 = beam["c1"] if beam["c1"] is not None else 1.0 / math.sqrt(2.0)
    c2 = beam["c2"] if beam["c2"] is not None else math.sqrt(max(1.0 - c1 ** 2, 0.0))
    sep = beam["separation"]
    w = beam["transverse_width"]
    scen = tn.TunnelScenario(
        longitudinal=GaussianPacket(start, a, p0, mass),
        transverse=(GaussianPacket(-sep / 2.0, w, 0.0, mass),
                    GaussianPacket(+sep / 2.0, w, 0.0, mass)),
        c1=c1, c2=c2, barrier=barrier)
    points = cfg.params.get("grid", {}).get("points") or (2048, 64)
    grid = tn.default_scenario_grid(scen, points_z=points[0], points_x=points[1])
    env = None
    decohered = p["mode"] == "decohered"
    if decohered:
        e = cfg.section("environment")
        if e["wavelength"] is None or e["rate"] is None:
            raise ConfigError("[environment] needs wavelength and rate")
        env = dec.EnvironmentSpec(e["wavelength"], e["rate"])
    rep = tn.run_tunnel_scenario(scen, grid=grid, with_decoherence=decohered,
                                 env=env, workers=threads)
    prof_rows = list(zip(rep.transverse_positions, rep.transverse_profile))
    files = {"transverse_profile.csv": _csv_bytes(("x_m", "density"), prof_rows)}
    if rep.final_density is not None:
        files["density.bin"] = field_array_bytes(
            rep.final_density.astype(complex), rep.density_grid.spacings,
            rep.density_grid.origins)
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


def _run_talbot(cfg, threads):
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
                carpet.intensity.astype(complex),
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
    offsets = np.linspace(-g["period"], g["period"], lau["offsets"])
    scan = tb.lau_scan(config, offsets)
    files = {"scan.csv": _csv_bytes(("offset_m", "flux"),
                                    list(zip(scan.offsets, scan.flux)))}
    summary = {"talbot_length_m": lt, "visibility": scan.visibility(),
               "L2_m": config.distance_L2,
               "grating": {"period_m": g["period"],
                           "open_fraction": g["open_fraction"],
                           "slits": g["slits"]}}
    return summary, files, {}


def _run_decohere(cfg, threads):
    p = cfg.section("decohere")
    e = cfg.section("environment")
    env = dec.EnvironmentSpec(e["wavelength"], e["rate"])
    gsec = cfg.section("grid")
    points = gsec["points"] or (512,)
    grid = Grid.make(points[:1], gsec["extent"])
    c1 = p["c1"] if p["c1"] is not None else 1.0 / math.sqrt(2.0)
    c2 = p["c2"] if p["c2"] is not None else math.sqrt(max(1.0 - c1 ** 2, 0.0))
    duration = p["duration_rate"] / env.rate_Lambda
    report = dec.decohered_sg_scenario(
        c1, c2, env, grid, p["width"], p["separation"], p["mass"],
        momentum=p["momentum"], duration=duration, steps=p["steps"],
        workers=threads)
    rho = report.final_rho
    files = {
        "coherence.csv": _csv_bytes(("t_s", "coherence"),
                                    list(zip(report.times, report.coherence_history))),
        "purity.csv": _csv_bytes(("t_s", "purity"),
                                 list(zip(report.times, report.purity_history))),
        "rho.bin": field_array_bytes(rho.rho,
                                     (grid.spacings[0], grid.spacings[0]),
                                     (grid.origins[0], grid.origins[0])),
        "rho.pgm": _pgm_bytes(np.abs(rho.rho)),
    }
    summary = {
        "band_intensities": list(report.intensities),
        "pure_band_intensities": list(report.pure_intensities),
        "final_coherence": report.coherence,
        "final_purity": report.purity,
        "duration_s": duration,
    }
    ts = cfg.params.get("timescales", {})
    if ts.get("transit_length") is not None and ts.get("transit_speed") is not None:
        rep = dec.timescale_report(p["width"], p["separation"], env,
                                   ts["transit_length"], ts["transit_speed"],
                                   p["mass"], ts.get("tau_diss", math.inf))
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


def run(cfg, outdir, threads=1):
    """Execute a validated config, write outputs + manifest into ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    started = time.time()
    summary, files, drift = _RUNNERS[cfg.kind](cfg, threads)
    files = dict(files)
    files["summary.json"] = _json_bytes(summary)

    entries = []
    for name in sorted(files):
        payload = files[name]
        path = os.path.join(outdir, name)
        with open(path, "wb") as fh:
            fh.write(payload)
        entries.append({"name": name, "bytes": len(payload),
                        "sha256": hashlib.sha256(payload).hexdigest()})

    manifest = {
        "tool": "qratio",
        "version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_hash": hashlib.sha256(cfg.canonical.encode()).hexdigest(),
        "wall_time_s": time.time() - started,
        "drift": drift,
        "outputs": entries,
    }
    tmp = os.path.join(outdir, ".manifest.json.tmp")
    with open(tmp, "wb") as fh:
        fh.write(_json_bytes(manifest))
    os.replace(tmp, os.path.join(outdir, "manifest.json"))
    return RunManifest(os.path.join(outdir, "manifest.json"),
                       manifest["config_hash"], entries,
                       manifest["wall_time_s"])
