/* mm_prof implementation — see mm_prof.h for the attribution model.
 * The aggregates intentionally mirror the interpreter profiler
 * (lib/support/profile.ml): per-span total/self/par/seq ns, iteration
 * and dispatch counts, per-worker busy ns, allocation bytes, and folded
 * stacks for flamegraph tools. */
#include "mm_prof.h"
#include "mm_runtime.h"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define MM_PROF_MAX_DEPTH 64
#define MM_PROF_MAX_WORKERS 64
#define MM_PROF_MAX_FOLDED 1024

typedef struct {
  long long entries;    /* times a frame for this span closed */
  long long total_ns;   /* wall time while the span was open */
  long long self_ns;    /* total minus time in nested spans */
  long long par_ns;     /* self time of parallel-dispatch frames */
  long long seq_ns;     /* self time of sequential frames */
  long long iters;      /* loop iterations executed */
  long long dispatches; /* parallel regions actually dispatched */
  long long alloc_bytes;
  /* Sampling freeze: after MM_PROF_FREEZE_AFTER timed closes a span
   * stops taking clock readings; further executions are counted (inline
   * by the emitted guards, via mm_prof_sentries/siters) and charged the
   * frozen per-close averages below at stop time.  Keeps the probe cost
   * of a tiny span entered per element of an enclosing loop near zero
   * while total/self stay statistically right. */
  int frozen;
  int fold_e;  /* fold entry holding this span's path at freeze time */
  int parent;  /* innermost open span at freeze time, -1 if none */
  long long est_total;
  long long est_self;
  long long frozen_self; /* self ns accumulated while frozen */
  long long settled;     /* skipped executions already moved (close_top) */
  long long moved_ns;    /* self ns those moves took from their parent */
  long long worker_ns[MM_PROF_MAX_WORKERS];
} mm_prof_row;

typedef struct {
  int id;
  long long start;
  long long child; /* ns spent in nested frames */
} mm_prof_frame;

typedef struct {
  int depth;
  int ids[MM_PROF_MAX_DEPTH];
  long long self_ns;
} mm_prof_fold;

/* Emitter fast-path state (see mm_prof.h). */
volatile int mm_prof_live = 0;
unsigned char *mm_prof_skip = 0;
long long *mm_prof_sentries = 0;
long long *mm_prof_siters = 0;

static int mm_prof_enabled = 0;
static int mm_prof_nspans = 0;
static const char *const *mm_prof_names = 0;
static mm_prof_row *mm_prof_rows = 0;
static mm_prof_frame mm_prof_stack[MM_PROF_MAX_DEPTH];
static int mm_prof_depth = 0;
/* Active parallel region (span id), -1 when none.  Set before the omp
 * region starts and cleared after it joins, so worker-side reads see a
 * stable value for the region's whole lifetime. */
static volatile int mm_prof_region = -1;
static long long mm_prof_t0 = 0;
static long long mm_prof_wall = -1;
static mm_prof_fold mm_prof_folds[MM_PROF_MAX_FOLDED];
static int mm_prof_nfolds = 0;
/* Timed closes before a span's timing freezes; effectively never when
 * MM_PROF_EXACT is set in the environment. */
static long long mm_prof_freeze_after = 128;

long long mm_prof_now(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + (long long)ts.tv_nsec;
}

/* Allocation attribution (mm_alloc_hook target): the active region's
 * row under an atomic add (workers allocate concurrently), else the
 * innermost open frame.  Bytes seen with neither stay unattributed and
 * are recovered at dump time as allocated-total minus attributed. */
static void mm_prof_on_alloc(long long bytes) {
  if (!mm_prof_enabled) return;
  int region = mm_prof_region;
  if (region >= 0 && region < mm_prof_nspans) {
#ifdef _OPENMP
#pragma omp atomic
#endif
    mm_prof_rows[region].alloc_bytes += bytes;
  } else if (mm_prof_depth > 0) {
    mm_prof_rows[mm_prof_stack[mm_prof_depth - 1].id].alloc_bytes += bytes;
  }
}

/* Crash-triage hook (mm_crash_span_hook target): the active region's
 * span, else the innermost open frame's.  Reads only ints and pointers
 * that are stable at signal time, so it is async-signal-safe. */
static const char *mm_prof_crash_span(void) {
  if (!mm_prof_enabled || !mm_prof_names) return 0;
  int region = mm_prof_region;
  if (region >= 0 && region < mm_prof_nspans) return mm_prof_names[region];
  if (mm_prof_depth > 0) {
    int id = mm_prof_stack[mm_prof_depth - 1].id;
    if (id >= 0 && id < mm_prof_nspans) return mm_prof_names[id];
  }
  return 0;
}

void mm_prof_init(int nspans, const char *const *spans) {
  if (nspans < 0) return;
  size_t n = nspans > 0 ? (size_t)nspans : 1;
  mm_prof_nspans = nspans;
  mm_prof_names = spans;
  mm_prof_rows = calloc(n, sizeof(mm_prof_row));
  mm_prof_skip = calloc(n, 1);
  mm_prof_sentries = calloc(n, sizeof(long long));
  mm_prof_siters = calloc(n, sizeof(long long));
  if (!mm_prof_rows || !mm_prof_skip || !mm_prof_sentries || !mm_prof_siters) {
    mm_prof_rows = 0; /* no profiling, but the program still runs */
    return;
  }
  mm_prof_depth = 0;
  mm_prof_region = -1;
  mm_prof_nfolds = 0;
  if (getenv("MM_PROF_EXACT")) mm_prof_freeze_after = (long long)1 << 62;
  else {
    /* MM_PROF_FREEZE=N overrides the freeze threshold: lower is
     * cheaper but extrapolates from fewer timed closes. */
    const char *fz = getenv("MM_PROF_FREEZE");
    if (fz) {
      long long n = atoll(fz);
      if (n > 0) mm_prof_freeze_after = n;
    }
  }
  mm_alloc_hook = mm_prof_on_alloc;
  mm_crash_span_hook = mm_prof_crash_span;
  mm_prof_t0 = mm_prof_now();
  mm_prof_enabled = 1;
  mm_prof_live = 1;
}

/* Fold the path [stack ids, bottom first, then [leaf]] with [self] ns.
 * [depth] is the number of stack entries below the leaf.  Loop bodies
 * close the same path over and over, so the last matched entry is
 * memoized and checked first; the linear scan only runs on a path
 * change. */
static int mm_prof_fold_last = -1;

static void mm_prof_fold_path(int depth, int leaf, long long self) {
  if (mm_prof_fold_last >= 0) {
    mm_prof_fold *fd = &mm_prof_folds[mm_prof_fold_last];
    if (fd->depth == depth + 1 && fd->ids[depth] == leaf) {
      int same = 1;
      for (int d = 0; d < depth; d++)
        if (fd->ids[d] != mm_prof_stack[d].id) {
          same = 0;
          break;
        }
      if (same) {
        fd->self_ns += self;
        return;
      }
    }
  }
  for (int e = 0; e < mm_prof_nfolds; e++) {
    if (mm_prof_folds[e].depth != depth + 1) continue;
    if (mm_prof_folds[e].ids[depth] != leaf) continue;
    int same = 1;
    for (int d = 0; d < depth; d++)
      if (mm_prof_folds[e].ids[d] != mm_prof_stack[d].id) {
        same = 0;
        break;
      }
    if (same) {
      mm_prof_folds[e].self_ns += self;
      mm_prof_fold_last = e;
      return;
    }
  }
  if (mm_prof_nfolds >= MM_PROF_MAX_FOLDED) return; /* drop the tail */
  mm_prof_fold *fd = &mm_prof_folds[mm_prof_nfolds];
  fd->depth = depth + 1;
  for (int d = 0; d < depth; d++) fd->ids[d] = mm_prof_stack[d].id;
  fd->ids[depth] = leaf;
  fd->self_ns = self;
  mm_prof_fold_last = mm_prof_nfolds++;
}

/* Fold the current open-stack path; the closing frame is the top. */
static void mm_prof_record_fold(long long self) {
  if (mm_prof_depth <= 0 || mm_prof_depth > MM_PROF_MAX_DEPTH) return;
  mm_prof_fold_path(mm_prof_depth - 1, mm_prof_stack[mm_prof_depth - 1].id,
                    self);
}

/* Move up to [want] ns of self time from row [from] (whose self absorbed
 * a skipped span's executions) to row [to]'s pending extrapolation.
 * Capping at what [from] holds keeps the attributed total conserved when
 * the frozen average overestimates the skipped executions.  The moved
 * time also leaves [from]'s folded stacks — the entries ending in it,
 * then the frozen self still to be credited to its hot path, each
 * clamped at 0 — since mm_prof_stop credits it to [to]'s hot path. */
static void mm_prof_move_self(mm_prof_row *from, mm_prof_row *to,
                              long long want) {
  long long moved = want < from->self_ns ? want : from->self_ns;
  if (moved <= 0) return;
  from->self_ns -= moved;
  from->seq_ns = from->seq_ns > moved ? from->seq_ns - moved : 0;
  to->moved_ns += moved;
  int id = (int)(from - mm_prof_rows);
  for (int e = 0; moved > 0 && e < mm_prof_nfolds; e++) {
    mm_prof_fold *fd = &mm_prof_folds[e];
    if (fd->ids[fd->depth - 1] != id) continue;
    long long take = moved < fd->self_ns ? moved : fd->self_ns;
    fd->self_ns -= take;
    moved -= take;
  }
  from->frozen_self = from->frozen_self > moved ? from->frozen_self - moved : 0;
}

/* Close the top frame, charging self = total - child to its row and the
 * total to the parent's child time. */
static void mm_prof_close_top(long long iters, int dispatches, int par) {
  mm_prof_frame f = mm_prof_stack[mm_prof_depth - 1];
  long long total = mm_prof_now() - f.start;
  long long self = total - f.child;
  if (self < 0) self = 0;
  if (self > 0) mm_prof_record_fold(self);
  mm_prof_depth--;
  if (mm_prof_depth > 0) mm_prof_stack[mm_prof_depth - 1].child += total;
  mm_prof_row *r = &mm_prof_rows[f.id];
  r->entries++;
  r->total_ns += total;
  r->self_ns += self;
  r->iters += iters;
  r->dispatches += dispatches;
  if (par)
    r->par_ns += self;
  else
    r->seq_ns += self;
  if (r->entries >= mm_prof_freeze_after && !r->frozen) {
    r->frozen = 1;
    r->parent = mm_prof_depth > 0 ? mm_prof_stack[mm_prof_depth - 1].id : -1;
    /* Children that froze under this span ran their skipped executions
     * inside its frames, so that time sits in this row's self: move it
     * out before taking the averages, and hand the children to this
     * span's parent, where their time lands once this span is skipped
     * too. */
    for (int c = 0; mm_prof_sentries && c < mm_prof_nspans; c++) {
      mm_prof_row *cr = &mm_prof_rows[c];
      if (c == f.id || !cr->frozen || cr->parent != f.id) continue;
      mm_prof_move_self(r, cr,
                        cr->est_self * (mm_prof_sentries[c] - cr->settled));
      cr->settled = mm_prof_sentries[c];
      cr->parent = r->parent;
    }
    r->est_total = r->total_ns / r->entries;
    r->est_self = r->self_ns / r->entries;
    /* the fold entry this close just touched IS the span's hot path */
    r->fold_e = (self > 0) ? mm_prof_fold_last : -1;
    if (mm_prof_skip) mm_prof_skip[f.id] = 1;
  }
}

/* A frozen span's execution: no frame was pushed, no clock was read.
 * Count it and charge the frozen per-close averages, crediting the
 * enclosing open frame's child time so parents don't absorb it. */
static void mm_prof_close_frozen(mm_prof_row *r, int id, long long iters,
                                 int dispatches, int par) {
  (void)id;
  r->entries++;
  r->total_ns += r->est_total;
  r->self_ns += r->est_self;
  r->frozen_self += r->est_self;
  r->iters += iters;
  r->dispatches += dispatches;
  if (par)
    r->par_ns += r->est_self;
  else
    r->seq_ns += r->est_self;
  if (mm_prof_depth > 0)
    mm_prof_stack[mm_prof_depth - 1].child += r->est_total;
}

void mm_prof_enter(int id) {
  if (!mm_prof_enabled || mm_prof_region >= 0) return;
  if (id < 0 || id >= mm_prof_nspans || mm_prof_depth >= MM_PROF_MAX_DEPTH)
    return;
  if (mm_prof_rows[id].frozen) return; /* counted at exit, no clock */
  mm_prof_frame *f = &mm_prof_stack[mm_prof_depth++];
  f->id = id;
  f->child = 0;
  f->start = mm_prof_now();
}

/* Find the matching open frame for [id] from the top down, or -1.  Exits
 * close everything above the match first (with zero counts), so a frame
 * leaked by an unusual control path heals instead of skewing parents. */
static int mm_prof_find(int id) {
  for (int i = mm_prof_depth - 1; i >= 0; i--)
    if (mm_prof_stack[i].id == id) return i;
  return -1;
}

void mm_prof_exit(int id, long long iters, int dispatches) {
  if (!mm_prof_enabled || mm_prof_region >= 0) return;
  if (id < 0 || id >= mm_prof_nspans) return;
  int at = mm_prof_find(id);
  if (at < 0) {
    mm_prof_row *r = &mm_prof_rows[id];
    if (r->frozen) mm_prof_close_frozen(r, id, iters, dispatches, 0);
    return;
  }
  while (mm_prof_depth - 1 > at) mm_prof_close_top(0, 0, 0);
  mm_prof_close_top(iters, dispatches, 0);
}

void mm_prof_enter_par(int id) {
  if (!mm_prof_enabled || mm_prof_region >= 0) return;
  if (id < 0 || id >= mm_prof_nspans) return;
#ifdef _OPENMP
  /* A frozen parallel span must still mark the region, or its workers
   * would hit the sequential probes concurrently. */
  if (mm_prof_rows[id].frozen) {
    if (omp_get_max_threads() > 1) {
      mm_prof_region = id;
      mm_prof_live = 0;
    }
    return;
  }
#endif
  mm_prof_enter(id);
#ifdef _OPENMP
  /* Only a real multi-thread dispatch suppresses nested frames: with
   * one thread the body profiles span by span, exactly like the
   * interpreter running pool-less. */
  if (omp_get_max_threads() > 1 && mm_prof_depth > 0 &&
      mm_prof_stack[mm_prof_depth - 1].id == id) {
    mm_prof_region = id;
    mm_prof_live = 0;
  }
#endif
}

void mm_prof_exit_par(int id, long long iters) {
  if (!mm_prof_enabled) return;
  int dispatched = (mm_prof_region == id);
  if (dispatched) {
    mm_prof_region = -1;
    mm_prof_live = 1;
  }
  if (mm_prof_region >= 0) return; /* nested inside another region */
  if (id < 0 || id >= mm_prof_nspans) return;
  int at = mm_prof_find(id);
  if (at < 0) {
    mm_prof_row *r = &mm_prof_rows[id];
    if (r->frozen)
      mm_prof_close_frozen(r, id, iters, dispatched ? 1 : 0, dispatched);
    return;
  }
  while (mm_prof_depth - 1 > at) mm_prof_close_top(0, 0, 0);
  mm_prof_close_top(iters, dispatched ? 1 : 0, dispatched);
}

void mm_prof_worker(int id, long long busy_ns) {
  if (!mm_prof_enabled || mm_prof_region != id) return;
  int w = 0;
#ifdef _OPENMP
  w = omp_get_thread_num();
#endif
  /* Distinct slot per thread id: no two threads write the same cell. */
  if (w >= 0 && w < MM_PROF_MAX_WORKERS)
    mm_prof_rows[id].worker_ns[w] += busy_ns;
}

void mm_prof_stop(void) {
  if (!mm_prof_enabled) return;
  mm_prof_live = 0;
  mm_prof_region = -1;
  while (mm_prof_depth > 0) mm_prof_close_top(0, 0, 0);
  /* Executions the emitted guards skipped entirely: their wall clock
   * sits in the self time of the parent open at freeze time.  Move the
   * frozen per-close self average per execution from there to the span
   * (only self: timed children were credited as children, and skipped
   * children move their own), so attributed time is conserved.  With no
   * parent the time was unattributed and is extrapolated outright. */
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    long long k = mm_prof_sentries ? mm_prof_sentries[i] : 0;
    if (k <= 0) continue;
    long long rest = r->est_self * (k - r->settled);
    if (r->parent >= 0 && r->parent < mm_prof_nspans)
      mm_prof_move_self(&mm_prof_rows[r->parent], r, rest);
    else
      r->moved_ns += rest;
    r->entries += k;
    r->iters += mm_prof_siters[i];
    r->total_ns += r->est_total * k;
    r->self_ns += r->moved_ns;
    r->seq_ns += r->moved_ns;
    r->frozen_self += r->moved_ns;
    mm_prof_sentries[i] = 0;
    mm_prof_siters[i] = 0;
  }
  /* Frozen spans skipped per-close fold updates; credit the self time
   * they accumulated to the hot path captured at freeze time. */
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    if (r->frozen && r->frozen_self > 0 && r->fold_e >= 0 &&
        r->fold_e < mm_prof_nfolds)
      mm_prof_folds[r->fold_e].self_ns += r->frozen_self;
  }
  mm_prof_wall = mm_prof_now() - mm_prof_t0;
  mm_prof_enabled = 0;
}

static void mm_prof_json_string(FILE *f, const char *s) {
  fputc('"', f);
  for (; *s; s++) {
    if (*s == '"' || *s == '\\') fputc('\\', f);
    fputc(*s, f);
  }
  fputc('"', f);
}

void mm_prof_dump(const char *path) {
  if (!mm_prof_rows) return;
  if (mm_prof_enabled) mm_prof_stop();
  FILE *f = fopen(path, "w");
  if (!f) return;
  long long attributed = 0, attr_alloc = 0;
  for (int i = 0; i < mm_prof_nspans; i++) {
    attributed += mm_prof_rows[i].self_ns;
    attr_alloc += mm_prof_rows[i].alloc_bytes;
  }
  fprintf(f, "{\"wall_ns\":%lld,\"attributed_ns\":%lld,\"spans\":[",
          mm_prof_wall < 0 ? 0 : mm_prof_wall, attributed);
  int first = 1;
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    /* Every span that was ever entered is reported, even with ~0 ns:
     * the interp-vs-native differential checks span-set containment. */
    if (r->entries == 0) continue;
    if (!first) fputc(',', f);
    first = 0;
    fputs("{\"span\":", f);
    mm_prof_json_string(f, mm_prof_names ? mm_prof_names[i] : "?");
    fprintf(f,
            ",\"total_ns\":%lld,\"self_ns\":%lld,\"iters\":%lld,"
            "\"dispatches\":%lld,\"par_ns\":%lld,\"seq_ns\":%lld,"
            "\"alloc_bytes\":%lld,\"workers\":{",
            r->total_ns, r->self_ns, r->iters, r->dispatches, r->par_ns,
            r->seq_ns, r->alloc_bytes);
    int wfirst = 1;
    for (int w = 0; w < MM_PROF_MAX_WORKERS; w++) {
      if (r->worker_ns[w] == 0) continue;
      if (!wfirst) fputc(',', f);
      wfirst = 0;
      fprintf(f, "\"%d\":%lld", w, r->worker_ns[w]);
    }
    fputs("}}", f);
  }
  fputs("],\"folded\":[", f);
  for (int e = 0; e < mm_prof_nfolds; e++) {
    if (e > 0) fputc(',', f);
    fputs("{\"stack\":\"", f);
    for (int d = 0; d < mm_prof_folds[e].depth; d++) {
      if (d > 0) fputc(';', f);
      int id = mm_prof_folds[e].ids[d];
      const char *name =
          (mm_prof_names && id >= 0 && id < mm_prof_nspans) ? mm_prof_names[id]
                                                            : "?";
      /* span strings are "line:col-..." — never need JSON escapes */
      fputs(name, f);
    }
    fprintf(f, "\",\"self_ns\":%lld}", mm_prof_folds[e].self_ns);
  }
  long long total_alloc = mm_allocated_bytes();
  long long unattributed = total_alloc - attr_alloc;
  if (unattributed < 0) unattributed = 0;
  fprintf(f,
          "],\"memory\":{\"allocated_bytes\":%lld,\"peak_bytes\":%lld,"
          "\"live_bytes\":%lld,\"unattributed_alloc_bytes\":%lld}}\n",
          total_alloc, mm_peak_bytes(), mm_live_bytes(), unattributed);
  fclose(f);
}
