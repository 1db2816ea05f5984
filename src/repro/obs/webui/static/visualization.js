/* Mission-control front end: render flight-event frames on two canvases.
 *
 * Data model: a "frame" is one adaptation point (step, strategy, px/py
 * grid shape, nest rects, churn lists, dynamic choice, link heat, ledger
 * skew), folded from the session's flight events by the server.  Both
 * modes read one endpoint, /api/sessions/{id}/frames, an NDJSON stream
 * of finished frames: replay mode sends them all and closes; attach mode
 * sends each frame once the next point starts and closes when the
 * session ends.  The scrub slider moves through frames; in attach mode
 * it follows the newest frame until the user scrubs backwards.
 */
"use strict";

const state = {
  mode: "",
  sessions: [],
  active: null,      // session id
  frames: [],
  cursor: 0,
  follow: true,      // auto-advance to newest frame (attach mode)
  reader: null,      // active stream reader, aborted on session switch
};

const $ = (id) => document.getElementById(id);

/* ---------------- rendering -------------------------------------------- */

function strategyColor(name) {
  if (name === "scratch") return "#f78166";
  if (name === "diffusion") return "#56d364";
  return "#58a6ff";
}

function drawGrid(frame) {
  const canvas = $("grid"), ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  if (!frame || !frame.px || !frame.py) {
    ctx.fillStyle = "#8b949e";
    ctx.fillText("no allocation data in this frame", 16, 24);
    return;
  }
  const pad = 24;
  const cell = Math.max(2, Math.min(
    (canvas.width - 2 * pad) / frame.px,
    (canvas.height - 2 * pad) / frame.py));
  const w = cell * frame.px, h = cell * frame.py;
  // processor grid
  ctx.strokeStyle = "#21262d";
  ctx.lineWidth = 1;
  for (let i = 0; i <= frame.px; i++) {
    ctx.beginPath();
    ctx.moveTo(pad + i * cell, pad);
    ctx.lineTo(pad + i * cell, pad + h);
    ctx.stroke();
  }
  for (let j = 0; j <= frame.py; j++) {
    ctx.beginPath();
    ctx.moveTo(pad, pad + j * cell);
    ctx.lineTo(pad + w, pad + j * cell);
    ctx.stroke();
  }
  // per-link heat: shade the busiest pairs' endpoint cells
  const heat = parseHeat(frame.heat_pairs);
  const maxB = Math.max(1, ...heat.map((p) => p.bytes));
  for (const p of heat) {
    for (const rank of [p.src, p.dst]) {
      const x = rank % frame.px, y = Math.floor(rank / frame.px);
      ctx.fillStyle =
        `rgba(247, 129, 102, ${0.15 + 0.55 * (p.bytes / maxB)})`;
      ctx.fillRect(pad + x * cell, pad + y * cell, cell, cell);
    }
  }
  // nest rectangles
  const inserted = new Set(frame.inserted.map(String));
  for (const [nid, r] of Object.entries(frame.rects)) {
    const fresh = inserted.has(nid);
    ctx.strokeStyle = fresh ? "#56d364" : "#58a6ff";
    ctx.lineWidth = 2;
    ctx.strokeRect(
      pad + r[0] * cell + 1, pad + r[1] * cell + 1,
      r[2] * cell - 2, r[3] * cell - 2);
    ctx.fillStyle = fresh ? "#56d364" : "#58a6ff";
    ctx.fillText(`#${nid}`, pad + r[0] * cell + 4, pad + r[1] * cell + 12);
  }
}

function parseHeat(pairs) {
  // "0>3:1024;2>5:512" -> [{src, dst, bytes}]
  if (!pairs) return [];
  return pairs.split(";").filter(Boolean).map((part) => {
    const [ends, bytes] = part.split(":");
    const [src, dst] = ends.split(">");
    return { src: +src, dst: +dst, bytes: +bytes || 0 };
  });
}

function drawTimeline() {
  const canvas = $("timeline"), ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const frames = state.frames;
  if (!frames.length) return;
  const n = frames.length;
  const barW = Math.max(2, Math.min(18, (canvas.width - 40) / n));
  const baseY = canvas.height - 34;
  const maxRedist = Math.max(1e-12, ...frames.map((f) => f.redist_measured));
  frames.forEach((f, i) => {
    const x = 20 + i * barW;
    // decision bar: which strategy actually ran this step
    const who = f.choice || f.strategy;
    ctx.fillStyle = strategyColor(who);
    const hh = 8 + 60 * (f.redist_measured / maxRedist);
    ctx.fillRect(x, baseY - hh, barW - 1, hh);
    // skew line point
    const sy = 18 + (1 - Math.min(1, f.skew_gini)) * 30;
    ctx.fillStyle = "#e3b341";
    ctx.fillRect(x + barW / 2 - 1, sy, 2, 2);
    if (i === state.cursor) {
      ctx.strokeStyle = "#c9d1d9";
      ctx.strokeRect(x - 0.5, 10, barW, canvas.height - 30);
    }
  });
  ctx.fillStyle = "#8b949e";
  ctx.fillText("bar height = measured redistribution; color = strategy; " +
    "amber dots = ledger Gini (top)", 20, canvas.height - 8);
}

function describe(frame) {
  if (!frame) return "";
  const churn = `+${frame.inserted.length} ~${frame.retained.length} ` +
    `-${frame.deleted.length}`;
  const other = Object.entries(frame.other)
    .map(([k, n]) => `${k}×${n}`).join(" ");
  const unknown = Object.entries(frame.unknown)
    .map(([k, n]) => `${k}×${n}`).join(" ");
  let choice = "";
  if (frame.choice) {
    choice = `chose ${frame.choice}` +
      ` (scratch ${Number(frame.choice_scratch_cost || 0).toFixed(4)}s` +
      ` vs diffusion ${Number(frame.choice_diffusion_cost || 0).toFixed(4)}s)\n`;
  }
  return (
    `step ${frame.step} · ${frame.strategy} · grid ${frame.px}×${frame.py} · ` +
    `${frame.n_nests} nests (${churn})\n` + choice +
    `redist predicted ${frame.redist_predicted.toFixed(4)}s, ` +
    `measured ${frame.redist_measured.toFixed(4)}s · ` +
    `skew gini ${frame.skew_gini.toFixed(3)} ` +
    `(max/mean ${frame.skew_max_over_mean.toFixed(2)})` +
    (other ? `\nalso: ${other}` : "") +
    (unknown ? `\nUNKNOWN: ${unknown}` : "")
  );
}

function render() {
  const frame = state.frames[state.cursor] || null;
  const scrub = $("scrub");
  scrub.max = Math.max(0, state.frames.length - 1);
  scrub.value = state.cursor;
  $("frame-label").textContent = state.frames.length
    ? `frame ${state.cursor + 1}/${state.frames.length}` +
      (state.follow && state.mode === "attach" ? " (live)" : "")
    : "no frames";
  $("detail").textContent = describe(frame);
  drawGrid(frame);
  drawTimeline();
}

/* ---------------- data loading ----------------------------------------- */

async function fetchJSON(path) {
  const res = await fetch(path);
  if (!res.ok) throw new Error(`${path}: HTTP ${res.status}`);
  return res.json();
}

async function loadSessions() {
  const body = await fetchJSON("/api/sessions");
  state.sessions = body.sessions || [];
  const list = $("session-list");
  list.textContent = "";
  for (const s of state.sessions) {
    const li = document.createElement("li");
    li.dataset.id = s.id;
    if (s.id === state.active) li.classList.add("active");
    const name = document.createElement("span");
    name.textContent = s.id;
    const st = document.createElement("span");
    st.className = "state";
    st.textContent = `${s.state} ${s.steps_completed}/${s.steps_total}`;
    li.append(name, st);
    li.addEventListener("click", () => selectSession(s.id));
    list.appendChild(li);
  }
  if (!state.active && state.sessions.length) {
    selectSession(state.sessions[0].id);
  }
}

async function selectSession(id) {
  state.active = id;
  state.frames = [];
  state.cursor = 0;
  state.follow = state.mode === "attach";
  if (state.reader) {
    try { state.reader.cancel(); } catch (e) { /* already closed */ }
    state.reader = null;
  }
  for (const li of $("session-list").children) {
    li.classList.toggle("active", li.dataset.id === id);
  }
  render();
  streamFrames(id);
}

async function streamFrames(id) {
  const res = await fetch(`/api/sessions/${encodeURIComponent(id)}/frames`);
  if (!res.ok || !res.body) {
    $("status").textContent = `frame stream failed: HTTP ${res.status}`;
    return;
  }
  const reader = res.body.getReader();
  state.reader = reader;
  const decoder = new TextDecoder();
  let buffer = "";
  for (;;) {
    const { done, value } = await reader.read();
    if (done || state.reader !== reader) return; // ended, or switched away
    buffer += decoder.decode(value, { stream: true });
    const lines = buffer.split("\n");
    buffer = lines.pop();
    const fresh = lines.filter((line) => line.trim()).map((l) => JSON.parse(l));
    if (!fresh.length) continue;
    state.frames.push(...fresh);
    if (state.follow) state.cursor = state.frames.length - 1;
    render();
  }
}

/* ---------------- wiring ----------------------------------------------- */

async function refreshHeader() {
  try {
    const health = await fetchJSON("/healthz");
    state.mode = health.mode;
    $("mode").textContent = `${health.mode} mode`;
  } catch (e) {
    $("status").textContent = `cannot reach server: ${e}`;
  }
}

$("scrub").addEventListener("input", (e) => {
  state.cursor = +e.target.value;
  state.follow = state.cursor >= state.frames.length - 1;
  render();
});

document.addEventListener("keydown", (e) => {
  if (e.key === "ArrowLeft" && state.cursor > 0) {
    state.cursor -= 1; state.follow = false; render();
  } else if (e.key === "ArrowRight" &&
             state.cursor < state.frames.length - 1) {
    state.cursor += 1;
    state.follow = state.cursor >= state.frames.length - 1;
    render();
  }
});

(async function main() {
  await refreshHeader();
  await loadSessions();
  if (state.mode === "attach") {
    setInterval(loadSessions, 2000); // keep the fleet list fresh
  }
  render();
})();
