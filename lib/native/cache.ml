(** Content-addressed cache of compiled native binaries.

    A binary is keyed by everything that could change it: the emitted C
    text, both runtime sources, the compiler name and the full flag list.
    Any flag or source change therefore misses and recompiles; re-running
    an unchanged program hits and skips the C compiler entirely.  Hits
    and misses are counted and exported as [cache.hit]/[cache.miss]
    telemetry gauges. *)

let default_dir = "_mmc_cache"

let hits = ref 0
let misses = ref 0
let hit_count () = !hits
let miss_count () = !misses

let reset_counts () =
  hits := 0;
  misses := 0

let export_gauges () =
  Support.Telemetry.set_gauge "cache.hit" (float_of_int !hits);
  Support.Telemetry.set_gauge "cache.miss" (float_of_int !misses)

(** [key ~toolchain ?instrument c_text] — hex digest naming the binary
    this exact (program, runtime, compiler configuration) triple compiles
    to.  Instrumented builds link the profiling runtime too, so the flag
    and the mm_prof sources join the digest: a profiled and an unprofiled
    run of the same program occupy distinct cache slots.  [pipeline] is
    the canonical pass-pipeline string the C was generated under;
    differently-configured pipelines never share a slot even if they
    happen to emit the same text today ([""], the default, keeps
    pre-pipeline digests valid). *)
let key ~(toolchain : Toolchain.t) ?(instrument = false) ?(pipeline = "")
    (c_text : string) =
  let prof_part =
    if instrument then
      [ "instrument"; Runtime_c.prof_header; Runtime_c.prof_impl ]
    else []
  in
  let pipeline_part = if pipeline = "" then [] else [ "pipeline"; pipeline ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ c_text; Runtime_c.header; Runtime_c.impl; toolchain.Toolchain.cc ]
          @ prof_part @ pipeline_part
          @ Toolchain.flags toolchain)))

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let exe_path ~dir k = Filename.concat dir ("mm_" ^ k ^ ".exe")

(** [find ~dir k] — cached binary for key [k], if any, without touching
    the hit/miss tally. *)
let find ~dir k =
  let path = exe_path ~dir k in
  if Sys.file_exists path then Some path else None

(** [tally r] counts the outcome [r] of one lookup as a hit or a miss and
    returns it. *)
let tally r =
  (match r with Some _ -> incr hits | None -> incr misses);
  export_gauges ();
  r

(** [lookup ~dir k] — cached binary for key [k], bumping the hit/miss
    tally either way. *)
let lookup ~dir k = tally (find ~dir k)

(** Materialise the program and runtime sources for a compile (the cache
    directory is also the build directory, so a failed compile leaves the
    offending .c behind for inspection).  Returns the .c files to hand to
    the compiler; instrumented builds add the profiling runtime. *)
let write_sources ~dir ~k ?(instrument = false) c_text =
  ensure_dir dir;
  let c_file = Filename.concat dir ("mm_" ^ k ^ ".c") in
  let write path text =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc text)
  in
  write c_file c_text;
  write (Filename.concat dir "mm_runtime.h") Runtime_c.header;
  write (Filename.concat dir "mm_runtime.c") Runtime_c.impl;
  if instrument then begin
    write (Filename.concat dir "mm_prof.h") Runtime_c.prof_header;
    write (Filename.concat dir "mm_prof.c") Runtime_c.prof_impl
  end;
  c_file :: Filename.concat dir "mm_runtime.c"
  :: (if instrument then [ Filename.concat dir "mm_prof.c" ] else [])
