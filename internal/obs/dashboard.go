package obs

// dashboardHTML is the self-contained live dashboard served at /. No
// external assets: one HTML document with inline CSS and JS that polls
// /api/status and renders a per-arch×app completion heatmap, a samples/sec
// sparkline and latency-percentile tiles, plus a per-region efficiency
// table (polled from /api/regions, hidden until the first profile fold
// arrives) whose efficiency columns are heatmap-shaded, and a measurement
// noise heatmap (polled from /api/variability, hidden until the first
// provenance-carrying sample arrives) showing per-arch×app CoV beside the
// completion grid. Colors follow the repository's
// chart conventions: sequential magnitude is one blue ramp light→dark,
// state is icon+label (never color alone), text wears ink tokens, and the
// lone sparkline series needs no legend. Light and dark are both selected
// palettes keyed off prefers-color-scheme.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>omptune sweep monitor</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb; --plane: #f9f9f7;
    --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
    --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6;
    --good: #0ca30c; --critical: #d03b3b;
    --ramp-0: #cde2fb; --ramp-1: #b7d3f6; --ramp-2: #9ec5f4; --ramp-3: #86b6ef;
    --ramp-4: #6da7ec; --ramp-5: #5598e7; --ramp-6: #3987e5; --ramp-7: #2a78d6;
    --ramp-8: #256abf; --ramp-9: #1c5cab; --ramp-10: #184f95; --ramp-11: #104281;
    --ramp-12: #0d366b;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19; --plane: #0d0d0d;
      --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
      --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
      --series-1: #3987e5;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 20px; background: var(--plane); color: var(--ink-1);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 16px; }
  h1 { font-size: 18px; font-weight: 600; margin: 0; }
  .sub { color: var(--ink-2); font-size: 13px; }
  .badge { font-size: 12px; font-weight: 600; padding: 2px 8px; border-radius: 9px;
           border: 1px solid var(--border); color: var(--ink-2); }
  .badge.running { color: var(--series-1); }
  .badge.done { color: var(--good); }
  .badge.error, .badge.disconnected { color: var(--critical); }
  .cards { display: grid; grid-template-columns: repeat(auto-fit, minmax(170px, 1fr));
           gap: 12px; margin-bottom: 16px; }
  .card { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 12px 14px; }
  .card .label { color: var(--ink-2); font-size: 12px; }
  .card .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
  .card .detail { color: var(--ink-3); font-size: 12px; margin-top: 2px; }
  .section { background: var(--surface-1); border: 1px solid var(--border);
             border-radius: 8px; padding: 14px; margin-bottom: 16px; }
  .section h2 { font-size: 13px; font-weight: 600; color: var(--ink-2); margin: 0 0 10px; }
  table.heat { border-collapse: separate; border-spacing: 2px; }
  table.heat th { font-size: 11px; font-weight: 500; color: var(--ink-3); padding: 2px 6px;
                  text-align: left; }
  table.heat th.col { max-width: 56px; overflow: hidden; text-overflow: ellipsis;
                      white-space: nowrap; }
  table.heat td { width: 52px; height: 30px; border-radius: 4px; text-align: center;
                  font-size: 11px; font-variant-numeric: tabular-nums; }
  table.heat td.empty { background: transparent; }
  .lat { display: grid; grid-template-columns: repeat(auto-fit, minmax(220px, 1fr)); gap: 12px; }
  .lat .tile { border: 1px solid var(--border); border-radius: 8px; padding: 10px 12px; }
  .lat .tile .label { color: var(--ink-2); font-size: 12px; }
  .lat .tile .value { font-size: 22px; font-weight: 600; }
  .lat .tile .detail { color: var(--ink-3); font-size: 12px;
                       font-variant-numeric: tabular-nums; }
  #spark { display: block; width: 100%; height: 64px; }
  table.regions { border-collapse: collapse; width: 100%;
                  font-variant-numeric: tabular-nums; }
  table.regions th { font-size: 11px; font-weight: 500; color: var(--ink-3);
                     text-align: right; padding: 3px 8px;
                     border-bottom: 1px solid var(--grid); }
  table.regions th.name, table.regions td.name { text-align: left;
                     max-width: 320px; overflow: hidden; text-overflow: ellipsis;
                     white-space: nowrap; }
  table.regions td { font-size: 12px; text-align: right; padding: 3px 8px; }
  table.regions td.eff { border-radius: 3px; }
  #tip { position: fixed; display: none; pointer-events: none; z-index: 10;
         background: var(--surface-1); border: 1px solid var(--border); border-radius: 6px;
         padding: 6px 9px; font-size: 12px; color: var(--ink-1);
         box-shadow: 0 2px 8px rgba(0,0,0,0.15); }
  #tip .k { color: var(--ink-2); }
</style>
</head>
<body>
<header>
  <h1>omptune sweep monitor</h1>
  <span class="badge" id="state">connecting…</span>
  <span class="sub" id="plan"></span>
</header>

<div class="cards">
  <div class="card"><div class="label">Samples</div>
    <div class="value" id="samples">–</div><div class="detail" id="samplesDetail"></div></div>
  <div class="card"><div class="label">Settings</div>
    <div class="value" id="settings">–</div><div class="detail" id="settingsDetail"></div></div>
  <div class="card"><div class="label">Throughput</div>
    <div class="value" id="rate">–</div><div class="detail">samples / second</div></div>
  <div class="card"><div class="label">ETA</div>
    <div class="value" id="eta">–</div><div class="detail" id="elapsed"></div></div>
  <div class="card"><div class="label">Workers busy</div>
    <div class="value" id="busy">–</div><div class="detail" id="workers"></div></div>
</div>

<div class="section">
  <h2>Samples per second</h2>
  <svg id="spark" viewBox="0 0 600 64" preserveAspectRatio="none" role="img"
       aria-label="samples per second over time"></svg>
</div>

<div class="section">
  <h2>Completion by architecture × application (% of samples)</h2>
  <div id="heat"></div>
</div>

<div class="section">
  <h2>Latency percentiles</h2>
  <div class="lat" id="lat"></div>
</div>

<div class="section" id="variabilitySection" style="display:none">
  <h2>Measurement noise by architecture × application (p50 CoV, %)</h2>
  <div id="varheat"></div>
  <div class="sub" id="varsum" style="margin-top:8px"></div>
</div>

<div class="section" id="regionsSection" style="display:none">
  <h2>Per-region efficiency (live profiler aggregate)</h2>
  <div id="regions"></div>
</div>

<div id="tip"></div>

<script>
(function () {
  "use strict";
  var ramp = [];
  var css = getComputedStyle(document.documentElement);
  for (var i = 0; i <= 12; i++) ramp.push(css.getPropertyValue("--ramp-" + i).trim());
  var history = [];            // [t, samples/sec]
  var MAXPTS = 90;
  var $ = function (id) { return document.getElementById(id); };

  function fmtDur(sec) {
    if (!isFinite(sec) || sec <= 0) return "–";
    if (sec < 1e-6) return (sec * 1e9).toFixed(0) + " ns";
    if (sec < 1e-3) return (sec * 1e6).toFixed(1) + " µs";
    if (sec < 1) return (sec * 1e3).toFixed(1) + " ms";
    if (sec < 90) return sec.toFixed(1) + " s";
    var m = Math.floor(sec / 60);
    if (m < 90) return m + "m " + Math.round(sec - m * 60) + "s";
    return (sec / 3600).toFixed(1) + " h";
  }
  function fmtCount(n) {
    if (n >= 1e6) return (n / 1e6).toFixed(1) + "M";
    if (n >= 1e4) return (n / 1e3).toFixed(1) + "K";
    return String(n);
  }
  function setState(cls, text) {
    var el = $("state");
    el.className = "badge " + cls;
    el.textContent = text;
  }

  function renderCards(s) {
    $("samples").textContent = fmtCount(s.samples_done);
    $("samplesDetail").textContent = "of " + fmtCount(s.samples_total) +
      (s.samples_total ? " (" + (100 * s.samples_done / s.samples_total).toFixed(1) + "%)" : "");
    $("settings").textContent = fmtCount(s.settings_done);
    $("settingsDetail").textContent = "of " + fmtCount(s.settings_total) + " batches";
    $("rate").textContent = s.samples_per_sec > 0 ? s.samples_per_sec.toFixed(1) : "–";
    $("eta").textContent = s.eta_sec > 0 ? fmtDur(s.eta_sec) : "–";
    $("elapsed").textContent = "elapsed " + fmtDur(s.elapsed_sec);
    $("busy").textContent = s.workers_busy;
    $("workers").textContent = "of " + (s.workers || "?") + " workers";
    $("plan").textContent = s.backend ? s.backend + " backend" : "";
  }

  function renderSpark(s) {
    if (s.state === "running" || history.length === 0) {
      history.push(s.samples_per_sec || 0);
      if (history.length > MAXPTS) history.shift();
    }
    var svg = $("spark");
    var W = 600, H = 64, PAD = 6;
    var max = 1e-9;
    for (var i = 0; i < history.length; i++) max = Math.max(max, history[i]);
    var pts = [];
    var n = Math.max(history.length - 1, 1);
    for (var j = 0; j < history.length; j++) {
      var x = PAD + (W - 2 * PAD) * (history.length === 1 ? 1 : j / n);
      var y = H - PAD - (H - 2 * PAD) * (history[j] / max);
      pts.push(x.toFixed(1) + "," + y.toFixed(1));
    }
    var line = css.getPropertyValue("--series-1").trim();
    var surface = css.getPropertyValue("--surface-1").trim();
    var last = pts[pts.length - 1].split(",");
    svg.innerHTML =
      '<polyline fill="none" stroke="' + line + '" stroke-width="2" ' +
      'stroke-linejoin="round" stroke-linecap="round" points="' + pts.join(" ") + '"/>' +
      '<circle cx="' + last[0] + '" cy="' + last[1] + '" r="6" fill="' + surface + '"/>' +
      '<circle cx="' + last[0] + '" cy="' + last[1] + '" r="4" fill="' + line + '"/>';
  }

  var tip = null;
  function showTip(e, html) {
    var t = $("tip");
    t.innerHTML = html;
    t.style.display = "block";
    t.style.left = Math.min(e.clientX + 12, window.innerWidth - 180) + "px";
    t.style.top = (e.clientY + 12) + "px";
  }
  function hideTip() { $("tip").style.display = "none"; }

  function renderHeat(s) {
    var cells = s.cells || [];
    if (cells.length === 0) { $("heat").textContent = "no per-app progress yet"; return; }
    var arches = [], apps = [], byKey = {};
    cells.forEach(function (c) {
      if (arches.indexOf(c.arch) < 0) arches.push(c.arch);
      if (apps.indexOf(c.app) < 0) apps.push(c.app);
      byKey[c.arch + "|" + c.app] = c;
    });
    var tbl = document.createElement("table");
    tbl.className = "heat";
    var hr = tbl.insertRow();
    hr.appendChild(document.createElement("th"));
    apps.forEach(function (a) {
      var th = document.createElement("th");
      th.className = "col"; th.textContent = a; th.title = a;
      hr.appendChild(th);
    });
    arches.forEach(function (arch) {
      var row = tbl.insertRow();
      var th = document.createElement("th");
      th.textContent = arch;
      row.appendChild(th);
      apps.forEach(function (app) {
        var td = row.insertCell();
        var c = byKey[arch + "|" + app];
        if (!c || !c.samples_total) { td.className = "empty"; return; }
        var frac = c.samples_done / c.samples_total;
        var step = Math.min(12, Math.floor(frac * 12.999));
        td.style.background = ramp[step];
        td.style.color = step >= 7 ? "#ffffff" : "#0b0b0b";
        td.textContent = Math.round(frac * 100);
        td.addEventListener("mousemove", function (e) {
          showTip(e, "<b>" + arch + " · " + app + "</b><br>" +
            '<span class="k">samples</span> ' + c.samples_done + " / " + c.samples_total +
            '<br><span class="k">settings</span> ' + c.settings_done + " / " + c.settings_total);
        });
        td.addEventListener("mouseleave", hideTip);
      });
    });
    var host = $("heat");
    host.textContent = "";
    host.appendChild(tbl);
  }

  function renderLatencies(s) {
    var host = $("lat");
    var lats = (s.latencies || []).filter(function (l) { return l.count > 0; });
    if (lats.length === 0) { host.textContent = "no latency observations yet"; return; }
    host.textContent = "";
    lats.forEach(function (l) {
      var div = document.createElement("div");
      div.className = "tile";
      div.innerHTML = '<div class="label">' + l.name + '</div>' +
        '<div class="value">' + fmtDur(l.p50_sec) + '</div>' +
        '<div class="detail">p90 ' + fmtDur(l.p90_sec) + ' · p99 ' + fmtDur(l.p99_sec) +
        ' · mean ' + fmtDur(l.mean_sec) + ' · n=' + fmtCount(l.count) + '</div>';
      host.appendChild(div);
    });
  }

  function fmtSec(s) { return fmtDur(s); }
  function effCell(v) {
    var td = document.createElement("td");
    td.className = "eff";
    var step = Math.min(12, Math.max(0, Math.floor(v * 12.999)));
    td.style.background = ramp[step];
    td.style.color = step >= 7 ? "#ffffff" : "#0b0b0b";
    td.textContent = (v * 100).toFixed(0) + "%";
    return td;
  }
  function renderRegions(rows) {
    var section = $("regionsSection");
    if (!rows || rows.length === 0) { section.style.display = "none"; return; }
    section.style.display = "";
    var tbl = document.createElement("table");
    tbl.className = "regions";
    var hr = tbl.insertRow();
    [["region", "name"], ["lvl"], ["count"], ["thr"], ["wall"],
     ["par.eff"], ["ld.bal"], ["bar%"], ["sched%"], ["stolen%"]].forEach(function (h) {
      var th = document.createElement("th");
      th.textContent = h[0];
      if (h[1]) th.className = h[1];
      hr.appendChild(th);
    });
    rows.forEach(function (r) {
      var tr = tbl.insertRow();
      var name = tr.insertCell();
      name.className = "name";
      name.textContent = r.name || "?";
      name.title = (r.file || "") + (r.line ? ":" + r.line : "");
      tr.insertCell().textContent = r.level;
      tr.insertCell().textContent = fmtCount(r.count);
      tr.insertCell().textContent = r.threads;
      tr.insertCell().textContent = fmtSec(r.wall_ns / 1e9);
      tr.appendChild(effCell(r.parallel_efficiency));
      tr.appendChild(effCell(r.load_balance));
      tr.insertCell().textContent = (100 * r.barrier_wait_share).toFixed(1);
      tr.insertCell().textContent = (100 * r.sched_overhead_share).toFixed(1);
      tr.insertCell().textContent = (100 * r.steal_rate).toFixed(1);
    });
    var host = $("regions");
    host.textContent = "";
    host.appendChild(tbl);
  }
  function pollRegions() {
    fetch("/api/regions").then(function (r) { return r.json(); })
      .then(renderRegions).catch(function () {});
  }

  function renderVariability(cells) {
    var section = $("variabilitySection");
    if (!cells || cells.length === 0) { section.style.display = "none"; return; }
    section.style.display = "";
    var arches = [], apps = [], byKey = {};
    var repsRun = 0, repsFixed = 0;
    cells.forEach(function (c) {
      if (arches.indexOf(c.arch) < 0) arches.push(c.arch);
      if (apps.indexOf(c.app) < 0) apps.push(c.app);
      byKey[c.arch + "|" + c.app] = c;
      repsRun += c.reps_run;
      repsFixed += c.reps_fixed;
    });
    var tbl = document.createElement("table");
    tbl.className = "heat";
    var hr = tbl.insertRow();
    hr.appendChild(document.createElement("th"));
    apps.forEach(function (a) {
      var th = document.createElement("th");
      th.className = "col"; th.textContent = a; th.title = a;
      hr.appendChild(th);
    });
    arches.forEach(function (arch) {
      var row = tbl.insertRow();
      var th = document.createElement("th");
      th.textContent = arch;
      row.appendChild(th);
      apps.forEach(function (app) {
        var td = row.insertCell();
        var c = byKey[arch + "|" + app];
        if (!c || !c.samples) { td.className = "empty"; return; }
        // Scale: 10% CoV saturates the ramp — anything darker is loud.
        var step = Math.min(12, Math.floor((c.cov_p50 / 0.10) * 12.999));
        td.style.background = ramp[step];
        td.style.color = step >= 7 ? "#ffffff" : "#0b0b0b";
        td.textContent = (100 * c.cov_p50).toFixed(1);
        td.addEventListener("mousemove", function (e) {
          showTip(e, "<b>" + arch + " · " + app + "</b><br>" +
            '<span class="k">series</span> ' + c.samples +
            '<br><span class="k">cov p50 / p90</span> ' +
            (100 * c.cov_p50).toFixed(2) + "% / " + (100 * c.cov_p90).toFixed(2) + "%" +
            '<br><span class="k">reps run / fixed</span> ' + c.reps_run + " / " + c.reps_fixed);
        });
        td.addEventListener("mouseleave", hideTip);
      });
    });
    var host = $("varheat");
    host.textContent = "";
    host.appendChild(tbl);
    var saved = repsFixed > 0 ? (100 * (1 - repsRun / repsFixed)) : 0;
    $("varsum").textContent = "adaptive measurement: " + repsRun + " reps run vs " +
      repsFixed + " fixed baseline (" + saved.toFixed(1) + "% saved)";
  }
  function pollVariability() {
    fetch("/api/variability").then(function (r) { return r.json(); })
      .then(renderVariability).catch(function () {});
  }

  function poll() {
    fetch("/api/status").then(function (r) { return r.json(); }).then(function (s) {
      if (!s) return;
      var labels = { waiting: "waiting", running: "running", done: "done", error: "error" };
      setState(s.state, "● " + (labels[s.state] || s.state));
      if (s.state === "error" && s.error) $("plan").textContent = s.error;
      renderCards(s);
      renderSpark(s);
      renderHeat(s);
      renderLatencies(s);
    }).catch(function () {
      setState("disconnected", "○ disconnected (campaign ended?)");
    });
  }
  poll();
  pollRegions();
  pollVariability();
  setInterval(poll, 2000);
  setInterval(pollRegions, 2000);
  setInterval(pollVariability, 2000);
})();
</script>
</body>
</html>
`
