/* mm_runtime implementation — see mm_runtime.h for the contract.  Every
 * observable behaviour (arithmetic precision, file format, result
 * printing) is matched against the mmc reference interpreter by the
 * differential test suite, so change nothing here without running it. */
#include "mm_runtime.h"

#include <fcntl.h>
#include <signal.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

void mm_fatal(const char *fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  fprintf(stderr, "mm_runtime: ");
  vfprintf(stderr, fmt, ap);
  fprintf(stderr, "\n");
  va_end(ap);
  exit(70);
}

/* --- supervised execution ----------------------------------------------
 * Failpoints, runtime guards, and crash breadcrumbs; see the header for
 * the __mm_fault protocol and the exit-code split (guards 71, mm_fatal
 * 70, failpoints abort()). */

typedef struct {
  char name[48];
  int nth;        /* > 0: fire on exactly the nth hit, one-shot */
  double prob;    /* > 0: fire per hit with this probability */
  long long seed; /* coin seed for prob mode */
  long long hits;
} mm_failpoint;

#define MM_FAIL_MAX 8
static mm_failpoint mm_fail[MM_FAIL_MAX];
static int mm_nfail = 0;

int mm_guard_on = 0;
static int mm_guard_nspans = 0;
static const char *const *mm_guard_spans = 0;

/* Breadcrumb stack of guard-span ids: thread-local storage behind the
 * inline push/pop macros in the header.  Per-thread trails need no
 * atomics or omp queries, and the signal handler runs on the faulting
 * thread, so it reads the stack that actually led to the fault. */
_Thread_local int mm_crumb_stack[MM_CRUMB_MAX];
_Thread_local int mm_crumb_depth = 0;

static const char *mm_span_name(int id) {
  if (mm_guard_spans && id >= 0 && id < mm_guard_nspans)
    return mm_guard_spans[id];
  return 0;
}

const char *(*mm_crash_span_hook)(void) = 0;

/* Fatal-signal handler: write the innermost resolvable span — the crash
 * hook's answer if any, else the breadcrumb stack — to mm_crash.txt
 * (async-signal-safe: open/write/close only), then die by the original
 * signal so the supervisor still sees the true cause. */
static void mm_crash_handler(int sig) {
  const char *span = mm_crash_span_hook ? mm_crash_span_hook() : 0;
  int depth = mm_crumb_depth;
  if (depth > MM_CRUMB_MAX) depth = MM_CRUMB_MAX;
  for (int i = depth - 1; i >= 0 && !span; i--)
    span = mm_span_name(mm_crumb_stack[i]);
  if (span) {
    int fd = open("mm_crash.txt", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ssize_t w = write(fd, span, strlen(span));
      w += write(fd, "\n", 1);
      (void)w;
      close(fd);
    }
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

static void mm_crash_install(void) {
  signal(SIGSEGV, mm_crash_handler);
  signal(SIGFPE, mm_crash_handler);
  signal(SIGBUS, mm_crash_handler);
  signal(SIGABRT, mm_crash_handler);
}

void mm_guard_init(int nspans, const char *const *spans) {
  mm_guard_nspans = nspans;
  mm_guard_spans = spans;
  mm_guard_on = 1;
  mm_crash_install();
}

_Noreturn void mm_guard_fault(int id, const char *fmt, ...) {
  const char *span = mm_span_name(id);
  printf("__mm_fault %d %s ", id, span ? span : "-");
  va_list ap;
  va_start(ap, fmt);
  vprintf(fmt, ap);
  va_end(ap);
  printf("\n");
  fflush(0);
  _exit(71);
}

/* Slow path of MM_GUARD_IDX — reached only when the inline check has
 * already failed, so it diagnoses the cause and always faults.  Being
 * _Noreturn is what makes the fast path fast: the compiler treats the
 * guard branch as terminal, so it can hoist elems loads out of loops
 * and fold repeated guards on the same subscript. */
_Noreturn void mm_guard_check(const void *p, int off, int id) {
  const mm_mat_float *m = p;
  if (!m) mm_guard_fault(id, "subscript on uninitialised matrix (NULL)");
  mm_guard_fault(id, "subscript %d out of bounds for %d elements", off,
                 m->elems);
}

/* One clause of MM_FAILPOINTS, already comma-split and trimmed:
 *   name@K        fire on the K-th hit (K a positive integer)
 *   name@P        fire each hit with probability P in (0,1]
 *   name@P:SEED   same, with an explicit coin seed
 * Mirrors Support.Failpoint.parse_clause, including the rejections. */
static void mm_fail_clause(char *clause) {
  while (*clause == ' ' || *clause == '\t') clause++;
  size_t len = strlen(clause);
  while (len > 0 && (clause[len - 1] == ' ' || clause[len - 1] == '\t'))
    clause[--len] = 0;
  if (len == 0) return; /* blank clauses are ignored, like arm_spec */
  char *at = strchr(clause, '@');
  if (!at)
    mm_fatal("MM_FAILPOINTS \"%s\": expected name@k or name@p[:seed]", clause);
  *at = 0;
  char *name = clause, *rest = at + 1;
  if (!*name || !*rest)
    mm_fatal("MM_FAILPOINTS \"%s@%s\": empty name or trigger", name, rest);
  if (mm_nfail >= MM_FAIL_MAX)
    mm_fatal("MM_FAILPOINTS: more than %d clauses", MM_FAIL_MAX);
  mm_failpoint *fp = &mm_fail[mm_nfail];
  memset(fp, 0, sizeof *fp);
  if (strlen(name) >= sizeof fp->name)
    mm_fatal("MM_FAILPOINTS: name \"%s\" too long", name);
  strcpy(fp->name, name);
  long long seed = 1;
  char *colon = strchr(rest, ':');
  if (colon) {
    char *end;
    seed = strtoll(colon + 1, &end, 10);
    if (end == colon + 1 || *end)
      mm_fatal("MM_FAILPOINTS \"%s\": bad seed \"%s\"", name, colon + 1);
    *colon = 0;
  }
  char *end;
  long long k = strtoll(rest, &end, 10);
  if (end != rest && !*end) {
    if (k < 1)
      mm_fatal("MM_FAILPOINTS \"%s\": hit count %lld must be >= 1", name, k);
    fp->nth = (int)k;
  } else {
    double p = strtod(rest, &end);
    if (end == rest || *end)
      mm_fatal("MM_FAILPOINTS \"%s\": bad trigger \"%s\"", name, rest);
    if (!(p > 0.0 && p <= 1.0))
      mm_fatal("MM_FAILPOINTS \"%s\": probability %g outside (0,1]", name, p);
    fp->prob = p;
    fp->seed = seed;
  }
  mm_nfail++;
}

void mm_fail_init(void) {
  mm_crash_install();
  const char *spec = getenv("MM_FAILPOINTS");
  if (!spec || !*spec) return;
  char *copy = malloc(strlen(spec) + 1);
  if (!copy) mm_fatal("out of memory");
  strcpy(copy, spec);
  char *start = copy;
  for (char *c = copy;; c++) {
    if (*c == ',' || *c == 0) {
      int done = *c == 0;
      *c = 0;
      mm_fail_clause(start);
      if (done) break;
      start = c + 1;
    }
  }
  free(copy);
}

/* Per-hit coin: a splitmix64 step of (seed, hit index) masked to 63 bits
 * — the same arithmetic as Support.Failpoint.coin on OCaml's native
 * ints, so a given (seed, hit sequence) fires the same hits in both
 * backends for non-negative seeds. */
static double mm_fail_coin(long long seed, long long n) {
  const unsigned long long mask = 0x7FFFFFFFFFFFFFFFULL;
  unsigned long long z = ((unsigned long long)seed * 0x9E3779B9ULL +
                          (unsigned long long)n * 0xBF58476DULL +
                          0x94D049BBULL) &
                         mask;
  z = ((z ^ (z >> 30)) * 0x4CE4E5B9BF58476DULL) & mask;
  z = ((z ^ (z >> 27)) * 0x133111EB94D049BBULL) & mask;
  unsigned long long bits = (z ^ (z >> 31)) & 0x3FFFFFFFULL;
  return (double)bits / (double)0x40000000ULL;
}

void mm_fail_hit(const char *name) {
  if (mm_nfail == 0) return;
  for (int i = 0; i < mm_nfail; i++) {
    mm_failpoint *fp = &mm_fail[i];
    if (strcmp(fp->name, name) != 0) continue;
    long long n;
    /* hits can come from inside OpenMP regions; one counter bump per
     * site keeps Nth-mode one-shot across threads */
#ifdef _OPENMP
#pragma omp critical(mm_fail_hits)
#endif
    n = ++fp->hits;
    int fire =
        fp->nth > 0 ? n == fp->nth : mm_fail_coin(fp->seed, n) < fp->prob;
    if (fire) {
      printf("__mm_fault -1 - injected fault at failpoint %s\n", name);
      fflush(stdout);
      abort();
    }
    return;
  }
}

/* --- allocation and reference counting --------------------------------- */

/* Live-matrix count and the per-matrix refcounts are updated from inside
 * OpenMP regions (a matrixMap body allocates and releases a slice per
 * iteration), so every update is atomic.  The count is a statistic read
 * after the regions join: relaxed.  A refcount decrement is acq_rel, so
 * the thread that drops the last reference sees every write made through
 * the other references before it frees the buffer.  The GCC/Clang
 * __atomic builtins keep the header's plain int fields. */
static int mm_live = 0;

int mm_live_count(void) {
  return __atomic_load_n(&mm_live, __ATOMIC_RELAXED);
}

/* Payload-byte gauges (live / peak / cumulative) and the allocation
 * hook.  Updates go through one named critical section because the
 * peak needs a read-modify-write and allocations can happen inside
 * OpenMP regions; allocation is rare next to loop iterations, so the
 * serialisation is invisible. */
static long long mm_live_b = 0;
static long long mm_peak_b = 0;
static long long mm_alloc_b = 0;
void (*mm_alloc_hook)(long long bytes) = 0;

long long mm_live_bytes(void) { return mm_live_b; }
long long mm_peak_bytes(void) { return mm_peak_b; }
long long mm_allocated_bytes(void) { return mm_alloc_b; }

static void mm_account_alloc(long long bytes) {
#ifdef _OPENMP
#pragma omp critical(mm_byte_account)
#endif
  {
    mm_alloc_b += bytes;
    mm_live_b += bytes;
    if (mm_live_b > mm_peak_b) mm_peak_b = mm_live_b;
  }
  if (mm_alloc_hook) mm_alloc_hook(bytes);
}

static void mm_account_free(long long bytes) {
#ifdef _OPENMP
#pragma omp critical(mm_byte_account)
#endif
  mm_live_b -= bytes;
}

static size_t mm_elem_size(int kind) {
  switch (kind) {
  case MM_KIND_FLOAT:
    return sizeof(mm_float);
  case MM_KIND_INT:
    return sizeof(int);
  default:
    return sizeof(bool);
  }
}

/* All three mm_mat_* structs share their header prefix; allocate through
 * the float variant and set the data pointer behind a char * so the same
 * code serves every kind. */
static void *mm_alloc(int kind, int rank, va_list ap) {
  mm_fail_hit("native.alloc");
  if (rank < 0 || rank > MM_MAX_RANK)
    mm_fatal("alloc: implausible rank %d", rank);
  mm_mat_float *m = calloc(1, sizeof(mm_mat_float));
  if (!m) mm_fatal("alloc: out of memory");
  m->rc = 1;
  m->kind = kind;
  m->rank = rank;
  long long n = 1;
  for (int d = 0; d < rank; d++) {
    int e = va_arg(ap, int);
    if (e < 0) mm_fatal("alloc: negative extent %d in dimension %d", e, d);
    m->dims[d] = e;
    n *= e;
  }
  if (n > (1 << 28)) mm_fatal("alloc: %lld elements exceeds limit", n);
  m->elems = (int)n;
  m->data = calloc(n > 0 ? (size_t)n : 1, mm_elem_size(kind));
  if (!m->data) mm_fatal("alloc: out of memory for %lld elements", n);
  __atomic_fetch_add(&mm_live, 1, __ATOMIC_RELAXED);
  mm_account_alloc(n * (long long)mm_elem_size(kind));
  return m;
}

mm_mat_float *mm_alloc_float(int rank, ...) {
  va_list ap;
  va_start(ap, rank);
  void *m = mm_alloc(MM_KIND_FLOAT, rank, ap);
  va_end(ap);
  return m;
}

mm_mat_int *mm_alloc_int(int rank, ...) {
  va_list ap;
  va_start(ap, rank);
  void *m = mm_alloc(MM_KIND_INT, rank, ap);
  va_end(ap);
  return m;
}

mm_mat_bool *mm_alloc_bool(int rank, ...) {
  va_list ap;
  va_start(ap, rank);
  void *m = mm_alloc(MM_KIND_BOOL, rank, ap);
  va_end(ap);
  return m;
}

void mm_rc_inc(void *p) {
  if (p) __atomic_fetch_add(&((mm_mat_float *)p)->rc, 1, __ATOMIC_RELAXED);
}

void mm_rc_dec(void *p) {
  if (!p) return;
  mm_mat_float *m = p;
  int old = __atomic_fetch_sub(&m->rc, 1, __ATOMIC_ACQ_REL);
  if (mm_guard_on && old <= 0)
    mm_guard_fault(-1, "reference count underflow (rc=%d)", old);
  if (old <= 1) {
    mm_account_free((long long)m->elems * (long long)mm_elem_size(m->kind));
    free(m->data);
    free(m);
    __atomic_fetch_sub(&mm_live, 1, __ATOMIC_RELAXED);
  }
}

int mm_size(const void *p) { return ((const mm_mat_float *)p)->elems; }

/* --- MMAT1 container I/O ------------------------------------------------ */

/* The interpreter's virtual filesystem flattens path separators, so a
 * program's "out/result.data" and the harness's fetch of the same name
 * agree on one file name in the working directory. */
static char *mm_resolve_path(const char *path) {
  char *real = malloc(strlen(path) + 1);
  if (!real) mm_fatal("out of memory resolving path");
  strcpy(real, path);
  for (char *c = real; *c; c++)
    if (*c == '/' || *c == '\\') *c = '_';
  return real;
}

/* Header ints are 4-byte big-endian (OCaml's output_binary_int). */
static void mm_put_be32(FILE *f, int v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    fputc((v >> shift) & 0xff, f);
}

static int mm_get_be32(FILE *f, const char *path, const char *what) {
  unsigned int v = 0;
  for (int i = 0; i < 4; i++) {
    int c = fgetc(f);
    if (c == EOF) mm_fatal("readMatrix \"%s\": truncated %s", path, what);
    v = (v << 8) | (unsigned int)c;
  }
  return (int)v;
}

/* Doubles travel as the decimal value of their bit pattern, one line per
 * element — the exact text the interpreter writes and parses. */
static long long mm_double_bits(double d) {
  long long i;
  memcpy(&i, &d, sizeof(i));
  return i;
}

static double mm_bits_double(long long i) {
  double d;
  memcpy(&d, &i, sizeof(d));
  return d;
}

void mm_write_matrix(const char *path, const void *p) {
  const mm_mat_float *m = p;
  if (!m) mm_fatal("writeMatrix \"%s\": uninitialised matrix", path);
  char *real = mm_resolve_path(path);
  FILE *f = fopen(real, "wb");
  if (!f) mm_fatal("writeMatrix \"%s\": cannot open %s", path, real);
  free(real);
  fputs("MMAT1\n", f);
  fputc(m->kind, f);
  mm_put_be32(f, m->rank);
  for (int d = 0; d < m->rank; d++) mm_put_be32(f, m->dims[d]);
  for (int i = 0; i < m->elems; i++) {
    switch (m->kind) {
    case MM_KIND_FLOAT:
      fprintf(f, "%lld\n", mm_double_bits(m->data[i]));
      break;
    case MM_KIND_INT:
      fprintf(f, "%d\n", ((const mm_mat_int *)p)->data[i]);
      break;
    default:
      fputc(((const mm_mat_bool *)p)->data[i] ? '1' : '0', f);
    }
  }
  if (fclose(f) != 0) mm_fatal("writeMatrix \"%s\": write failed", path);
}

static long long mm_read_line_int(FILE *f, const char *path, int i) {
  char line[64];
  if (!fgets(line, sizeof(line), f))
    mm_fatal("readMatrix \"%s\": truncated at element %d", path, i);
  char *end;
  long long v = strtoll(line, &end, 10);
  if (end == line)
    mm_fatal("readMatrix \"%s\": malformed element %d", path, i);
  return v;
}

void *mm_read_matrix(const char *path) {
  mm_fail_hit("native.io.read_matrix");
  char *real = mm_resolve_path(path);
  FILE *f = fopen(real, "rb");
  if (!f) mm_fatal("readMatrix \"%s\": cannot open: %s", path, real);
  free(real);
  char magic[7] = {0};
  if (fread(magic, 1, 6, f) != 6 || strcmp(magic, "MMAT1\n") != 0)
    mm_fatal("readMatrix \"%s\": bad magic", path);
  int kind = fgetc(f);
  if (kind != MM_KIND_FLOAT && kind != MM_KIND_INT && kind != MM_KIND_BOOL)
    mm_fatal("readMatrix \"%s\": unknown element kind", path);
  int rank = mm_get_be32(f, path, "rank");
  if (rank < 0 || rank > MM_MAX_RANK)
    mm_fatal("readMatrix \"%s\": implausible rank %d", path, rank);
  mm_mat_float *m = calloc(1, sizeof(mm_mat_float));
  if (!m) mm_fatal("out of memory");
  m->rc = 1;
  m->kind = kind;
  m->rank = rank;
  long long n = 1;
  for (int d = 0; d < rank; d++) {
    int e = mm_get_be32(f, path, "extent");
    if (e < 0 || e > (1 << 24))
      mm_fatal("readMatrix \"%s\": implausible extent %d", path, e);
    m->dims[d] = e;
    n *= e;
  }
  if (n > (1 << 28))
    mm_fatal("readMatrix \"%s\": %lld elements exceeds limit", path, n);
  m->elems = (int)n;
  m->data = calloc(n > 0 ? (size_t)n : 1, mm_elem_size(kind));
  if (!m->data) mm_fatal("out of memory for %lld elements", n);
  mm_account_alloc(n * (long long)mm_elem_size(kind));
  for (int i = 0; i < m->elems; i++) {
    switch (kind) {
    case MM_KIND_FLOAT:
      m->data[i] = mm_bits_double(mm_read_line_int(f, path, i));
      break;
    case MM_KIND_INT:
      ((mm_mat_int *)(void *)m)->data[i] =
          (int)mm_read_line_int(f, path, i);
      break;
    default: {
      int c = fgetc(f);
      if (c != '0' && c != '1')
        mm_fatal("readMatrix \"%s\": bad bool element %d", path, i);
      ((mm_mat_bool *)(void *)m)->data[i] = c == '1';
    }
    }
  }
  fclose(f);
  __atomic_fetch_add(&mm_live, 1, __ATOMIC_RELAXED);
  return m;
}

/* --- result protocol ---------------------------------------------------- */

void mm_result_int(int v) { printf("__mm_result int %d\n", v); }

void mm_result_float(mm_float v) {
  printf("__mm_result float %lld\n", mm_double_bits(v));
}

void mm_result_bool(bool v) { printf("__mm_result bool %d\n", v ? 1 : 0); }

void mm_result_void(void) { printf("__mm_result void\n"); }

void mm_result_null(void) { printf("__mm_result null\n"); }

void mm_result_tuple(int fields) { printf("__mm_result tuple %d\n", fields); }

void mm_result_mat(const void *p) {
  const mm_mat_float *m = p;
  if (!m) {
    mm_result_null();
    return;
  }
  printf("__mm_result mat %c %d", m->kind, m->rank);
  for (int d = 0; d < m->rank; d++) printf(" %d", m->dims[d]);
  printf("\n__mm_data");
  for (int i = 0; i < m->elems; i++) {
    switch (m->kind) {
    case MM_KIND_FLOAT:
      printf(" %lld", mm_double_bits(m->data[i]));
      break;
    case MM_KIND_INT:
      printf(" %d", ((const mm_mat_int *)p)->data[i]);
      break;
    default:
      printf(" %d", ((const mm_mat_bool *)p)->data[i] ? 1 : 0);
    }
  }
  printf("\n");
}

void mm_result_live(void) { printf("__mm_live %d\n", mm_live_count()); }

/* --- simulated SSE ------------------------------------------------------ */

/* Lane access that works for both real __m128 and the portable struct. */
typedef union {
  __m128 v;
  float f[4];
} mm_lanes;

void mm_scatter_ps(mm_float *data, int base, int stride, __m128 v) {
  mm_lanes u;
  u.v = v;
  for (int k = 0; k < 4; k++) data[base + k * stride] = (mm_float)u.f[k];
}

mm_float mm_hsum_ps(__m128 v) {
  mm_lanes u;
  u.v = v;
  mm_float s = 0.0;
  for (int k = 0; k < 4; k++) s += (mm_float)u.f[k];
  return s;
}

__m128 mm_mod_ps(__m128 a, __m128 b) {
  mm_lanes x, y, r;
  x.v = a;
  y.v = b;
  for (int k = 0; k < 4; k++) {
    /* C99 fmodf without pulling in <math.h> link requirements: the
     * interpreter rejects vector modulo, so this path is unreachable
     * from generated code and exists only for link completeness. */
    float q = x.f[k] / y.f[k];
    r.f[k] = x.f[k] - (float)(long long)q * y.f[k];
  }
  return r.v;
}
