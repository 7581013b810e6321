"""Zero-dependency HTML ops console served at ``GET /dashboard``.

One self-contained page — inline CSS and vanilla JS, no external
assets, no frameworks — that a browser pointed at a running
``repro serve`` turns into mission control:

* polls ``/v1/series`` + ``/v1/alerts`` every couple of seconds and
  renders SVG sparklines for every series;
* a banner flips red when the service is degraded
  (``service.degraded``), and every non-``ok`` alert gets a card with
  its burn rates and error-budget remainder;
* tails the existing ``/v1/events`` SSE firehose into a scrolling log.

Served as ``text/html`` bytes by the server; kept here so the obs
layer owns all three pillars (traces, metrics, history+alerts) and the
server stays a thin transport.
"""

from __future__ import annotations

#: Bumped when the page changes enough that cached copies mislead.
CONSOLE_VERSION = 2

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro mission control</title>
<style>
  :root { --bg:#0b0e14; --panel:#151a23; --ink:#c8d3e0; --dim:#6b7a8f;
          --ok:#3fb68b; --warn:#e3b341; --bad:#e5534b; --line:#2a3342; }
  * { box-sizing:border-box; }
  body { margin:0; background:var(--bg); color:var(--ink);
         font:13px/1.45 ui-monospace,SFMono-Regular,Menlo,monospace; }
  header { display:flex; gap:12px; align-items:baseline; padding:10px 16px;
           border-bottom:1px solid var(--line); position:sticky; top:0;
           background:var(--bg); flex-wrap:wrap; }
  header h1 { font-size:15px; margin:0; color:#fff; }
  .pill { padding:1px 8px; border-radius:9px; border:1px solid var(--line);
          color:var(--dim); }
  .pill.ok   { color:var(--ok);   border-color:var(--ok); }
  .pill.warn { color:var(--warn); border-color:var(--warn); }
  .pill.bad  { color:var(--bad);  border-color:var(--bad); }
  main { padding:12px 16px; display:grid; gap:14px; }
  section h2 { font-size:12px; text-transform:uppercase; letter-spacing:.1em;
               color:var(--dim); margin:0 0 6px; }
  .grid { display:grid; gap:8px;
          grid-template-columns:repeat(auto-fill,minmax(250px,1fr)); }
  .card { background:var(--panel); border:1px solid var(--line);
          border-radius:6px; padding:7px 9px; }
  .card .name { color:var(--dim); font-size:11px; overflow:hidden;
                text-overflow:ellipsis; white-space:nowrap; }
  .card .val { font-size:15px; color:#fff; }
  .card.firing  { border-color:var(--bad);  }
  .card.pending { border-color:var(--warn); }
  .card.resolved{ border-color:var(--ok);   }
  svg.spark { width:100%; height:34px; display:block; }
  svg.spark polyline { fill:none; stroke:var(--ok); stroke-width:1.4; }
  svg.spark.rate polyline { stroke:#58a6ff; }
  svg.spark.quantile polyline { stroke:var(--warn); }
  #log { max-height:220px; overflow-y:auto; background:var(--panel);
         border:1px solid var(--line); border-radius:6px; padding:6px 9px;
         white-space:pre-wrap; color:var(--dim); }
  #log .alert { color:var(--bad); }
  input { background:var(--panel); border:1px solid var(--line);
          color:var(--ink); border-radius:4px; padding:2px 6px; }
</style>
</head>
<body>
<header>
  <h1>repro mission control</h1>
  <span id="origin" class="pill">connecting&hellip;</span>
  <span id="degraded" class="pill">journal: &hellip;</span>
  <span id="firing" class="pill">alerts: &hellip;</span>
  <span class="pill" id="clock"></span>
  <input id="filter" placeholder="filter series&hellip;" size="18">
</header>
<main>
  <section><h2>Alerts</h2><div id="alerts" class="grid"></div></section>
  <section><h2>Series</h2><div id="series" class="grid"></div></section>
  <section><h2>Event firehose</h2><div id="log"></div></section>
</main>
<script>
"use strict";
const $ = id => document.getElementById(id);
const esc = s => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));

function spark(points, kind) {
  if (!points || points.length < 2) return "";
  const vs = points.map(p => p[1]);
  const lo = Math.min(...vs), hi = Math.max(...vs), span = (hi - lo) || 1;
  const t0 = points[0][0], t1 = points[points.length - 1][0];
  const tspan = (t1 - t0) || 1;
  const pts = points.map(p =>
    (100 * (p[0] - t0) / tspan).toFixed(1) + "," +
    (30 - 26 * (p[1] - lo) / span + 2).toFixed(1)).join(" ");
  return `<svg class="spark ${kind}" viewBox="0 0 100 34"` +
         ` preserveAspectRatio="none"><polyline points="${pts}"/></svg>`;
}

function fmt(v) {
  if (v === null || v === undefined) return "–";
  if (Math.abs(v) >= 1000) return v.toLocaleString(undefined,
    {maximumFractionDigits: 0});
  return +v.toFixed(3);
}

function card(name, s) {
  const last = s.points.length ? s.points[s.points.length - 1][1] : null;
  const unit = s.kind === "rate" ? "/s" : "";
  return `<div class="card"><div class="name" title="${esc(name)}">` +
    `${esc(name)}</div><div class="val">${fmt(last)}${unit}</div>` +
    spark(s.points, s.kind) + `</div>`;
}

function renderSeries(doc) {
  const filter = $("filter").value.trim();
  $("series").innerHTML = Object.entries(doc.series || {})
    .filter(([name]) => !filter || name.includes(filter))
    .map(([n, s]) => card(n, s)).join("");

  const latest = n => { const s = (doc.series || {})[n];
    return s && s.points.length ? s.points[s.points.length - 1][1] : 0; };
  const degraded = latest("service.degraded") > 0;
  setPill("degraded", degraded ? "journal: DEGRADED (read-only)"
          : "journal: healthy", degraded ? "bad" : "ok");
}

function setPill(id, text, cls) {
  const el = $(id); el.textContent = text; el.className = "pill " + cls;
}

function renderAlerts(doc) {
  const alerts = doc.alerts || [];
  const firing = alerts.filter(a => a.state === "firing");
  setPill("firing", `alerts: ${firing.length} firing`,
          firing.length ? "bad" : "ok");
  const active = alerts.filter(a => a.state !== "ok");
  $("alerts").innerHTML = active.length ? active.map(a =>
    `<div class="card ${a.state}"><div class="name">${esc(a.name)}</div>` +
    `<div class="val">${a.state.toUpperCase()}</div>` +
    `<div class="name">burn ${fmt(a.burn_fast)}&times; fast / ` +
    `${fmt(a.burn_slow)}&times; slow &middot; budget ` +
    `${Math.round(a.budget_remaining * 100)}%</div>` +
    `<div class="name">${esc(a.description)}</div></div>`).join("")
    : `<span class="pill ok">all objectives met</span>`;
}

async function poll() {
  try {
    const [sr, ar] = await Promise.all([
      fetch("/v1/series"), fetch("/v1/alerts")]);
    const sdoc = await sr.json();
    renderSeries(sdoc);
    if (ar.ok) renderAlerts(await ar.json());
    setPill("origin", sdoc.origin || location.host, "ok");
  } catch (e) {
    setPill("origin", "unreachable", "bad");
  }
  $("clock").textContent = new Date().toLocaleTimeString();
}

function firehose() {
  const log = $("log");
  const source = new EventSource("/v1/events");
  const show = ev => {
    let data; try { data = JSON.parse(ev.data); } catch (e) { return; }
    const line = document.createElement("div");
    if (String(data.type).startsWith("alert_")) line.className = "alert";
    line.textContent = `${new Date((data.ts || 0) * 1000)
      .toLocaleTimeString()} ${data.type} ` +
      JSON.stringify(data, (k, v) =>
        ["type", "ts", "seq"].includes(k) ? undefined : v);
    log.prepend(line);
    while (log.childNodes.length > 60) log.removeChild(log.lastChild);
  };
  // Every frame names its type (`event: <type>`), and an EventSource
  // hands a named event only to the listeners of that name.
  for (const type of ["job_queued", "job_running", "set_done", "span",
                      "job_done", "job_failed", "job_recovered",
                      "service_degraded", "service_recovered",
                      "alert_pending", "alert_firing", "alert_resolved",
                      "chaos_fault"])
    source.addEventListener(type, show);
  source.onerror = () => setPill("origin", "stream lost", "warn");
}

$("filter").addEventListener("input", poll);
poll();
firehose();
setInterval(poll, 2000);
</script>
</body>
</html>
"""


def render_console() -> bytes:
    """The full ``/dashboard`` page as UTF-8 ``text/html`` bytes."""
    return _PAGE.encode("utf-8")
