(* Benchmark harness regenerating every experiment in DESIGN.md §4.

   The paper's evaluation is qualitative (§V: "we intentionally do not
   provide any performance numbers here"), so each group reproduces a
   CLAIM's shape rather than an absolute number:

     C1  near-linear scaling of auto-parallelized with-loops (§V ¶1)
     C2  with-loop/assignment fusion vs library-style temp+copy (§III-A5)
     C3  slice-copy elimination (§III-A5)
     C4  programmer-directed transformation variants (§V)
     C5  enhanced fork-join pool vs naive spawn-per-region (§III-C)
     C6  refcounting overhead and allocator behaviour (§III-B/C)
     C7  composition cost and the composability analyses (§VI)
     C11-C14  remarks, native execution, native profiling and guard
         overhead; the native rows are exported to BENCH_kernels.json
     C15 per-process fixed cost: compose and its compose.* split, and
         the process wall of `mmc emit` and warm `mmc exec`

   Every timing goes through [measure]: one warmup call, then repeated
   timed calls summarised as median and quartiles, printed as
   `median [q1-q3]`.  Every A/B comparison goes through [verdict], which
   reads "within noise" when the medians differ by no more than the wider
   of the two interquartile ranges, and the ratio of medians otherwise.
   Results are summarised against the paper's claims in EXPERIMENTS.md.

   [--smoke] runs a spawn-per-region sanity check, a tiny C5 pool region,
   [measure]/[verdict] on both and C15 at 3 repeats (seconds, no timing
   gate, no JSON output) — the target
   `make check` invokes so the perf plumbing cannot bit-rot silently. *)

module Nd = Runtime.Ndarray

let cores = Domain.recommended_domain_count ()

(* --- measurement ------------------------------------------------------------- *)

(* Seconds per call. *)
type stat = { med : float; q1 : float; q3 : float }

(* Median and quartiles of [samples] (seconds), by linear interpolation
   between the closest ranks. *)
let stat_of samples =
  let samples = Array.copy samples in
  Array.sort compare samples;
  let n = Array.length samples in
  let q p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    let j = min (i + 1) (n - 1) in
    samples.(i) +. ((x -. float_of_int i) *. (samples.(j) -. samples.(i)))
  in
  { med = q 0.5; q1 = q 0.25; q3 = q 0.75 }

(* [measure ?reps ?batch f] — one warmup call of [f], then [reps] timed
   samples of [batch] calls each, reported per call.  [batch] lifts
   ns-scale micro-tests above the clock's resolution. *)
let measure ?(reps = 5) ?(batch = 1) f =
  f ();
  stat_of
    (Array.init reps (fun _ ->
         let t0 = Support.Telemetry.now_ns () in
         for _ = 1 to batch do
           f ()
         done;
         float_of_int (Support.Telemetry.now_ns () - t0)
         /. 1e9 /. float_of_int batch))

let iqr s = s.q3 -. s.q1

(* A/B verdict: ratio of medians a/b, unless the medians are closer than
   the wider of the two interquartile ranges. *)
let verdict a b =
  if Float.abs (a.med -. b.med) <= Float.max (iqr a) (iqr b) then
    "within noise"
  else Printf.sprintf "%.2fx" (a.med /. b.med)

let pp_scaled scale dec s =
  Printf.sprintf "%.*f [%.*f-%.*f]" dec (s.med *. scale) dec (s.q1 *. scale)
    dec (s.q3 *. scale)

let ms = pp_scaled 1000. 2

let per_call s =
  if s.med >= 1e-3 then pp_scaled 1e3 3 s ^ " ms"
  else if s.med >= 1e-6 then pp_scaled 1e6 3 s ^ " us"
  else pp_scaled 1e9 1 s ^ " ns"

(* ns-scale micro-tests: (name, calls per timed sample, body). *)
let micro title tests =
  Fmt.pr "@.--- %s (median [q1-q3] per call) ---@." title;
  List.iter
    (fun (name, batch, f) ->
      Fmt.pr "  %-40s %s@." name (per_call (measure ~batch f)))
    tests

(* --- shared setup ---------------------------------------------------------------- *)

let c_full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]
let c_norc = Driver.compose [ Driver.matrix; Driver.transform ]

let with_input cube f =
  Driver.with_data_dir None (fun dir ->
      Interp.Eval.provide_input ~dir "ssh.data" cube;
      f dir)

let or_die what = function
  | Driver.Ok_ x -> x
  | Driver.Failed ds ->
      Fmt.epr "%s failed: %s@." what (Driver.diags_to_string ds);
      exit 1

(* [pass] switches one pass of [c]'s default pipeline on or off. *)
let run_prog ?pool ?pass ~c ~dir src =
  let config =
    match pass with
    | Some (name, on) -> Driver.Pipeline.enable (Driver.default_config c) name on
    | None -> Driver.default_config c
  in
  ignore (or_die "bench program" (Driver.run ~dir ?pool ~config c src []))

let cube ~m ~n ~p =
  Nd.init_float [| m; n; p |] (fun ix ->
      float_of_int ((7 * ix.(0)) + (3 * ix.(1)) + ix.(2)) /. 97.)

(* --- telemetry capture ------------------------------------------------------- *)

(* Machine-readable per-phase numbers for each claim group, exported to
   BENCH_telemetry.json.  Each group runs one *representative* workload
   with telemetry enabled, separate from the timed loops above, so the
   instrumentation can never perturb the measurements. *)
let telemetry_groups : (string * string) list ref = ref []

let instrumented group f =
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Support.Telemetry.set_enabled false)
    f;
  telemetry_groups :=
    (group, Support.Telemetry.to_json ()) :: !telemetry_groups;
  (match Support.Telemetry.span_totals () with
  | [] -> ()
  | totals ->
      let top = List.filteri (fun i _ -> i < 3) totals in
      Fmt.pr "  [%s telemetry] %a@." group
        Fmt.(
          list ~sep:(any ", ") (fun ppf (n, calls, secs) ->
              pf ppf "%s x%d %.1fms" n calls (secs *. 1000.)))
        top);
  Support.Telemetry.reset ()

let write_bench_telemetry () =
  let groups = List.rev !telemetry_groups in
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc "{\"groups\":{";
  List.iteri
    (fun i (name, json) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc "%S:%s" name json)
    groups;
  output_string oc "}}\n";
  close_out oc;
  Fmt.pr "telemetry written to BENCH_telemetry.json (%d groups)@."
    (List.length groups)

(* --- C1: scaling of auto-parallelized with-loops ----------------------------------- *)

let bench_scaling () =
  Fmt.pr "@.=== C1: with-loop scaling on the fork-join pool (§V ¶1) ===@.";
  Fmt.pr "machine cores: %d  (near-linear speedup is only observable up to \
          the core count; the paper used 2 x 6-core)@."
    cores;
  let data = cube ~m:48 ~n:48 ~p:24 in
  let time ?pool () =
    with_input data (fun dir ->
        measure (fun () ->
            run_prog ~c:c_full ~dir ?pool ~pass:("auto-par", true)
              Eddy.Programs.fig1_temporal_mean))
  in
  let base = time () in
  Fmt.pr "  %8s %24s %14s@." "threads" "wall (ms)" "speedup";
  Fmt.pr "  %8d %24s %14s@." 1 (ms base) "-";
  List.iter
    (fun t ->
      let s = Runtime.Pool.with_pool t (fun pool -> time ~pool ()) in
      Fmt.pr "  %8d %24s %14s@." t (ms s) (verdict base s))
    [ 2; 4; 8 ];
  instrumented "C1" (fun () ->
      Runtime.Pool.with_pool 2 (fun pool ->
          with_input data (fun dir ->
              run_prog ~c:c_full ~dir ~pool ~pass:("auto-par", true)
                Eddy.Programs.fig1_temporal_mean)))

(* --- C2: fusion vs library-style temp + copy ----------------------------------------- *)

let bench_fusion () =
  Fmt.pr "@.=== C2: with-loop/assignment fusion (§III-A5) ===@.";
  Fmt.pr "  %-14s %24s %24s %14s@." "size" "fused(ms)" "library(ms)"
    "library/fused";
  List.iter
    (fun (m, n, p) ->
      let time fuse =
        with_input (cube ~m ~n ~p) (fun dir ->
            measure (fun () ->
                run_prog ~c:c_full ~dir ~pass:("fuse", fuse)
                  Eddy.Programs.fig1_temporal_mean))
      in
      let fused = time true in
      let library = time false in
      Fmt.pr "  %4dx%4dx%3d %24s %24s %14s@." m n p (ms fused) (ms library)
        (verdict library fused))
    (* small p makes the library's result copy large relative to the
       fold work, which is where fusion matters *)
    [ (64, 64, 2); (96, 96, 2); (64, 64, 16) ];
  instrumented "C2" (fun () ->
      let data = cube ~m:64 ~n:64 ~p:2 in
      with_input data (fun dir ->
          run_prog ~c:c_full ~dir ~pass:("fuse", true) Eddy.Programs.fig1_temporal_mean;
          run_prog ~c:c_full ~dir ~pass:("fuse", false)
            Eddy.Programs.fig1_temporal_mean))

(* --- C3: slice-copy elimination -------------------------------------------------------- *)

let bench_slice_elim () =
  Fmt.pr "@.=== C3: slice-copy elimination (§III-A5) ===@.";
  Fmt.pr "  %-14s %24s %24s %14s %11s %11s@." "size" "optimized(ms)"
    "naive(ms)" "naive/opt" "allocs opt" "allocs no";
  List.iter
    (fun (m, n, p) ->
      let data = cube ~m ~n ~p in
      (* allocations of one run, then its timing *)
      let time ~copy_elim =
        with_input data (fun dir ->
            let run () =
              run_prog ~c:c_full ~dir ~pass:("copy-elim", copy_elim)
                Eddy.Programs.fig1_with_slice_copy
            in
            Runtime.Rc.reset ();
            run ();
            let allocs = (Runtime.Rc.stats ()).Runtime.Rc.allocs in
            (measure run, allocs))
      in
      let t_opt, a_opt = time ~copy_elim:true in
      let t_no, a_no = time ~copy_elim:false in
      Fmt.pr "  %4dx%4dx%3d %24s %24s %14s %11d %11d@." m n p (ms t_opt)
        (ms t_no) (verdict t_no t_opt) a_opt a_no)
    [ (16, 16, 16); (32, 32, 24) ];
  instrumented "C3" (fun () ->
      let data = cube ~m:16 ~n:16 ~p:16 in
      with_input data (fun dir ->
          run_prog ~c:c_full ~dir Eddy.Programs.fig1_with_slice_copy))

(* --- C4: transformation variants (§V) --------------------------------------------------- *)

let bench_transform_variants () =
  Fmt.pr "@.=== C4: programmer-directed transformation variants (§V) ===@.";
  let data = cube ~m:48 ~n:64 ~p:32 in
  let variants =
    [
      ("baseline (Fig 3)", Eddy.Programs.fig1_temporal_mean, 1);
      ( "split j by 4 (Fig 10)",
        Eddy.Programs.fig9_with_script "split j by 4, jin, jout",
        1 );
      ( "split + vectorize (Fig 11)",
        Eddy.Programs.fig9_with_script
          "split j by 4, jin, jout. vectorize jin",
        1 );
      ("tile i,j by 8", Eddy.Programs.fig9_with_script "tile i, j by 8", 1);
      ( "interchange i,j",
        Eddy.Programs.fig9_with_script "interchange i, j",
        1 );
      ("full Fig 9 script (2 threads)", Eddy.Programs.fig9_transformed, 2);
      ( "split k + unroll kin by 4",
        Eddy.Programs.fig9_with_script
          "split k by 4, kin, kout. unroll kin by 4",
        1 );
    ]
  in
  Fmt.pr "  %-32s %24s@." "variant" "wall (ms)";
  List.iter
    (fun (label, src, threads) ->
      let time ?pool () =
        with_input data (fun dir ->
            measure (fun () -> run_prog ~c:c_full ~dir ?pool src))
      in
      let s =
        if threads > 1 then
          Runtime.Pool.with_pool threads (fun pool -> time ~pool ())
        else time ()
      in
      Fmt.pr "  %-32s %24s@." label (ms s))
    variants;
  instrumented "C4" (fun () ->
      with_input data (fun dir ->
          run_prog ~c:c_full ~dir
            (Eddy.Programs.fig9_with_script "tile i, j by 8")))

(* --- C5: enhanced fork-join vs naive spawn-per-region ------------------------------------ *)

(* The two sides of C5: [regions] parallel regions of [work] iterations
   on a persistent pool of [t] domains, or spawning [t] domains per
   region. *)
let pool_side ?reps ~regions ~work ~body t =
  Runtime.Pool.with_pool t (fun pool ->
      measure ?reps (fun () ->
          for _ = 1 to regions do
            Runtime.Pool.parallel_for pool 0 work body
          done))

let spawn_side ?reps ~regions ~work ~body t =
  measure ?reps (fun () ->
      for _ = 1 to regions do
        Runtime.Pool.naive_parallel_for t 0 work body
      done)

let bench_forkjoin () =
  Fmt.pr "@.=== C5: enhanced fork-join (§III-C) ===@.";
  let regions = 200 and work = 2_000 in
  let sink = Array.make work 0 in
  let body i = sink.(i) <- sink.(i) + 1 in
  Fmt.pr "  %d parallel regions of %d iterations each:@." regions work;
  Fmt.pr "  %8s %24s %24s %14s@." "threads" "pool (ms)"
    "spawn-per-region (ms)" "spawn/pool";
  List.iter
    (fun t ->
      let p = pool_side ~regions ~work ~body t in
      let n = spawn_side ~regions ~work ~body t in
      Fmt.pr "  %8d %24s %24s %14s@." t (ms p) (ms n) (verdict n p))
    [ 2; 4 ];
  instrumented "C5" (fun () ->
      Runtime.Pool.with_pool 2 (fun pool ->
          for _ = 1 to regions do
            Runtime.Pool.parallel_for pool 0 work body
          done))

(* --- C6: refcounting overhead -------------------------------------------------------------- *)

let bench_refcount () =
  Fmt.pr "@.=== C6: reference counting (§III-B/C) ===@.";
  let data = cube ~m:32 ~n:32 ~p:16 in
  let time c =
    with_input data (fun dir ->
        measure (fun () ->
            run_prog ~c ~dir Eddy.Programs.fig1_temporal_mean))
  in
  let with_rc = time c_full in
  let without_rc = time c_norc in
  Fmt.pr "  Fig 1 workload: rc on %s ms, rc off %s ms (on/off: %s)@."
    (ms with_rc) (ms without_rc)
    (verdict with_rc without_rc);
  (* §III-C: "most allocations made are relatively infrequent and are
     large" — hot-path costs of the rc primitives: *)
  let live = Runtime.Rc.alloc ~bytes:0 () in
  micro "rc primitives"
    [
      ( "alloc+release 4KiB payload",
        10_000,
        fun () ->
          Runtime.Rc.decr_ (Runtime.Rc.alloc ~bytes:4096 (Array.make 512 0.)) );
      ( "inc/dec pair on a live cell",
        100_000,
        fun () ->
          Runtime.Rc.incr_ live;
          Runtime.Rc.decr_ live );
    ];
  instrumented "C6" (fun () ->
      with_input data (fun dir ->
          run_prog ~c:c_full ~dir Eddy.Programs.fig1_temporal_mean))

(* --- C7: composition cost and analyses (§VI) ------------------------------------------------ *)

let bench_composition () =
  Fmt.pr "@.=== C7: grammar composition and composability analyses (§VI) ===@.";
  let lalr exts =
    measure (fun () ->
        ignore
          (Grammar.Lalr.build (Grammar.Cfg.compose Driver.effective_host exts)))
  in
  let states sel = (Driver.compose sel).Driver.table.Grammar.Lalr.n_states in
  let row label s states =
    Fmt.pr "  %-46s %24s %8s@." label (ms s) states
  in
  Fmt.pr "  %-46s %24s %8s@." "configuration" "time (ms)" "states";
  row "host alone (LALR tables)" (lalr []) (string_of_int (states []));
  row "host + matrix"
    (lalr [ Ext_matrix.Matrix_ext.grammar ])
    (string_of_int (states [ Driver.matrix ]));
  row "host + matrix + transform"
    (lalr
       [ Ext_matrix.Matrix_ext.grammar; Ext_transform.Transform_ext.grammar ])
    (string_of_int (states [ Driver.matrix; Driver.transform ]));
  row "isComposable(host, matrix)"
    (measure (fun () ->
         ignore
           (Grammar.Determinism.check Driver.effective_host
              Ext_matrix.Matrix_ext.grammar)))
    "-";
  row "full compose (analyses + tables + scanner DFAs)"
    (measure (fun () -> ignore (Driver.compose Driver.all_extensions)))
    "-";
  Fmt.pr "  analyses verdicts: matrix/transform/refptr PASS; tuples FAILS \
          (host-packaged) — see examples/extensibility_demo.@.";
  instrumented "C7" (fun () ->
      ignore (Driver.compose Driver.all_extensions))

(* --- the native measured paths (C12-C14, BENCH_kernels.json, --compare) ----------------- *)

(* One row kind of BENCH_kernels.json: its section, the field
   `bench --compare` gates, the programs it covers and the measured path
   itself.  C12-C14 and `bench --compare` both time [run], so the
   baseline and the re-measurement can never drift apart. *)
type native_kind = {
  section : string;
  field : string;
  progs : (string * string option) list;
  run : cache_dir:string -> dir:string -> string -> unit;
}

let native_cube () = cube ~m:48 ~n:64 ~p:32

(* From the repository root (`dune exec`) or from _build/default/bench
   (the @bench-smoke rule). *)
let example_path name =
  List.find_opt Sys.file_exists
    [ Filename.concat "examples" name; Filename.concat "../examples" name ]

let example name =
  example_path name
  |> Option.map (fun p -> In_channel.with_open_text p In_channel.input_all)

let paper_progs =
  [
    ("fig1", Some Eddy.Programs.fig1_temporal_mean);
    ("fig9", Some Eddy.Programs.fig9_transformed);
  ]

let corpus_progs = paper_progs @ [ ("eddy_energy", example "eddy_energy.mc") ]

(* `mmc profile --native` with the default (sequential) pipeline, the
   lowering [Driver.exec] uses, so plain and instrumented binaries differ
   only in the probes — with auto-par on the instrumented side would also
   pay one GOMP single-thread region launch per dispatch (~1.8 ms on
   eddy_energy), which is OpenMP overhead, not instrumentation. *)
let profile_native ~cache_dir ~dir src =
  or_die "native profile bench"
    (Driver.profile_native
       ~config:(Driver.default_config c_full)
       ~dir ~cache_dir c_full src)

(* Warm `mmc exec`: frontend + lower + binary-cache hit + run. *)
let plain_exec =
  {
    section = "native";
    field = "native_ms";
    progs = paper_progs;
    run =
      (fun ~cache_dir ~dir src ->
        ignore
          (or_die "native bench program"
             (Driver.exec ~dir ~cache_dir c_full src)));
  }

(* Warm `mmc profile --native`: one mm_prof_enter/exit pair per executed
   provenance span plus a worker-clock read per parallel region. *)
let profiled_exec =
  {
    section = "native_profile";
    field = "instrumented_ms";
    progs = corpus_progs;
    run =
      (fun ~cache_dir ~dir src -> ignore (profile_native ~cache_dir ~dir src));
  }

(* Warm `mmc exec --guards`: every emitted subscript through the
   MM_GUARD_IDX bounds/NULL check, crash breadcrumbs around provenance
   sites. *)
let guarded_exec =
  {
    section = "native_guards";
    field = "guards_ms";
    progs = corpus_progs;
    run =
      (fun ~cache_dir ~dir src ->
        ignore
          (or_die "guarded bench program"
             (Driver.exec ~guards:true ~dir ~cache_dir c_full src)));
  }

let native_kinds = [ plain_exec; profiled_exec; guarded_exec ]

(* Rows for BENCH_kernels.json as (section, JSON object), newest first;
   filled by C12-C14 before [write_bench_kernels] runs. *)
let kernel_rows : (string * string) list ref = ref []

let add_row kind prog fields =
  kernel_rows :=
    ( kind.section,
      Support.Telemetry.json_obj
        (("prog", Printf.sprintf "%S" prog)
        :: List.map (fun (k, v) -> (k, Printf.sprintf "%.3f" v)) fields) )
    :: !kernel_rows

let write_bench_kernels () =
  let section kind =
    match
      List.rev
        (List.filter_map
           (fun (s, row) -> if s = kind.section then Some row else None)
           !kernel_rows)
    with
    | [] -> ""
    | rows ->
        Printf.sprintf ",\n \"%s\":[%s]" kind.section
          (String.concat ",\n  " rows)
  in
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc "{\"machine_cores\":%d%s}\n" cores
    (String.concat "" (List.map section native_kinds));
  close_out oc;
  Fmt.pr "@.native rows written to BENCH_kernels.json@."

let with_cc k =
  match Native.Toolchain.probe () with
  | Error e -> Fmt.pr "  skipped: %s@." (Native.Toolchain.describe_error e)
  | Ok tc -> k tc

(* --- C12: native execution vs the interpreter (§II) ------------------------------------------- *)

(* The paper's pipeline hands the emitted C to "a traditional compiler";
   `mmc exec` does exactly that.  C12 measures what that buys: end-to-end
   wall time of the interpreted path (`mmc run`) against the native path
   (`mmc exec`, binary cache warm so compilation is excluded), plus the
   one-time cost of the C compile itself. *)
let bench_native () =
  Fmt.pr "@.=== C12: native execution vs interpreter (§II) ===@.";
  with_cc @@ fun tc ->
  Fmt.pr "  cc: %s%s@." tc.Native.Toolchain.cc
    (if tc.Native.Toolchain.openmp then " (OpenMP live)"
     else " (no OpenMP: sequential fallback)");
  let data = native_cube () in
  Driver.with_data_dir None @@ fun cache_dir ->
  Fmt.pr "  %-8s %24s %24s %12s %14s@." "prog" "interp(ms)" "native(ms)"
    "compile(ms)" "interp/native";
  List.iter
    (fun (name, src) ->
      let src = Option.get src in
      with_input data (fun dir ->
          let interp = measure (fun () -> run_prog ~c:c_full ~dir src) in
          (* Cold exec fills the cache; the compile-time gauge is the C
             compiler's share of it. *)
          Support.Telemetry.reset ();
          Support.Telemetry.set_enabled true;
          plain_exec.run ~cache_dir ~dir src;
          let compile_ms =
            match
              List.assoc_opt "native.compile_ns" (Support.Telemetry.gauges ())
            with
            | Some ns -> ns /. 1e6
            | None -> 0.
          in
          Support.Telemetry.set_enabled false;
          Support.Telemetry.reset ();
          let native = measure (fun () -> plain_exec.run ~cache_dir ~dir src) in
          add_row plain_exec name
            [
              ("interp_ms", interp.med *. 1000.);
              ("native_ms", native.med *. 1000.);
              ("compile_ms", compile_ms);
              ("speedup", interp.med /. native.med);
              ("iqr_ms", iqr native *. 1000.);
            ];
          Fmt.pr "  %-8s %24s %24s %12.1f %14s@." name (ms interp) (ms native)
            compile_ms (verdict interp native)))
    plain_exec.progs;
  instrumented "C12" (fun () ->
      with_input data (fun dir ->
          plain_exec.run ~cache_dir ~dir Eddy.Programs.fig1_temporal_mean))

(* --- C13/C14: the cost of one native variant over plain `mmc exec` (§II) ---------------------- *)

(* Warm-cache plain `mmc exec` against [kind]'s variant of it, per
   program.  [extra] adds a (header, cell) column, [telemetry] is the
   group's representative instrumented run. *)
let bench_native_variant ~title ~group ~label kind ?extra ~telemetry () =
  Fmt.pr "@.=== %s: %s ===@." group title;
  with_cc @@ fun _ ->
  let data = native_cube () in
  Driver.with_data_dir None @@ fun cache_dir ->
  let col, extra =
    Option.value extra ~default:("", fun ~cache_dir:_ ~dir:_ _ -> "")
  in
  Fmt.pr "  %-12s %24s %24s %14s%s@." "prog" "plain(ms)" (label ^ "(ms)")
    (label ^ "/plain") col;
  List.iter
    (fun (name, src) ->
      match src with
      | None -> Fmt.pr "  %-12s source not found — skipped@." name
      | Some src ->
          with_input data (fun dir ->
              (* each warmup call fills its cache slot, so the timed
                 calls measure the run, not the C compiler *)
              let time k = measure (fun () -> k.run ~cache_dir ~dir src) in
              let plain = time plain_exec in
              let variant = time kind in
              add_row kind name
                [
                  ("plain_ms", plain.med *. 1000.);
                  (kind.field, variant.med *. 1000.);
                  ("overhead_pct", (variant.med /. plain.med -. 1.) *. 100.);
                  ("iqr_ms", iqr variant *. 1000.);
                ];
              Fmt.pr "  %-12s %24s %24s %14s%s@." name (ms plain) (ms variant)
                (verdict variant plain)
                (extra ~cache_dir ~dir src)))
    kind.progs;
  instrumented group (fun () ->
      with_input data (fun dir -> telemetry ~cache_dir ~dir))

(* C13 also exports the per-span interp/native self-time ratios of fig1
   as telemetry gauges, so the BENCH trajectory tracks where native code
   gains least. *)
let bench_native_profile () =
  bench_native_variant ~title:"native profiling overhead (§II)" ~group:"C13"
    ~label:"instr" profiled_exec
    ~extra:
      ( Printf.sprintf " %9s" "coverage",
        fun ~cache_dir ~dir src ->
          let _, report = profile_native ~cache_dir ~dir src in
          Printf.sprintf " %8.1f%%"
            (Driver.Profile_report.coverage report *. 100.) )
    ~telemetry:(fun ~cache_dir ~dir ->
      let src = Eddy.Programs.fig1_temporal_mean in
      let interp =
        match
          Driver.profile ~config:(Driver.default_config c_full) ~dir c_full src
            []
        with
        | Driver.Ok_ _, report -> report
        | Driver.Failed ds, _ ->
            Fmt.epr "interp profile bench failed: %s@."
              (Driver.diags_to_string ds);
            exit 1
      in
      let _, native = profile_native ~cache_dir ~dir src in
      let d = Driver.Profile_report.diff_reports ~src ~interp ~native in
      Support.Telemetry.set_gauge "profile.program_ratio"
        d.Driver.Profile_report.program_ratio;
      Support.Telemetry.set_gauge "profile.native_coverage"
        (Driver.Profile_report.coverage native);
      List.iter
        (fun (r : Driver.Profile_report.diff_row) ->
          Option.iter
            (Support.Telemetry.set_gauge
               ("profile.span_ratio." ^ r.Driver.Profile_report.d_span))
            r.Driver.Profile_report.d_speedup)
        d.Driver.Profile_report.diff_rows)
    ()

let bench_native_guards () =
  bench_native_variant ~title:"runtime guard overhead (§II)" ~group:"C14"
    ~label:"guards" guarded_exec
    ~telemetry:(fun ~cache_dir ~dir ->
      guarded_exec.run ~cache_dir ~dir Eddy.Programs.fig1_temporal_mean)
    ()

(* --- C11: optimization-remark counts over the paper corpus ------------------------------------ *)

(* Lower every corpus program through Driver.explain and record the
   remark tallies as [remark.<pass>.<kind>] gauges, so the BENCH_*.json
   trajectory tracks how many decisions each pass takes (and how many it
   declines) on the paper's own programs.  Also times the remark tax:
   lowering with collection on vs. off. *)
let bench_remarks () =
  Fmt.pr "@.=== C11: optimization remarks over the paper corpus ===@.";
  let corpus =
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig9", Eddy.Programs.fig9_transformed);
      ("fig1-slice-copy", Eddy.Programs.fig1_with_slice_copy);
    ]
  in
  let explain_all () =
    List.concat_map
      (fun (_, src) ->
        match Driver.explain c_full src with
        | Driver.Ok_ _, report -> report.Driver.Explain_report.remarks
        | Driver.Failed _, _ -> [])
      corpus
  in
  let lower_all () =
    List.iter
      (fun (_, src) ->
        match Driver.frontend c_full src with
        | Driver.Ok_ ast ->
            ignore
              (Driver.lower ~config:(Driver.explain_config c_full) c_full ast)
        | Driver.Failed _ -> ())
      corpus
  in
  Support.Remark.set_enabled false;
  let off = measure lower_all in
  let remarks = explain_all () in
  Support.Remark.set_enabled false;
  let on = measure (fun () -> ignore (explain_all ())) in
  Support.Remark.set_enabled false;
  Fmt.pr "  %-24s %8s %8s %8s@." "pass" "applied" "missed" "skipped";
  List.iter
    (fun (pass, a, m, s) -> Fmt.pr "  %-24s %8d %8d %8d@." pass a m s)
    (Support.Remark.counts remarks);
  Fmt.pr "  remark tax: lowering %s ms silent, %s ms collecting \
          (collecting/silent: %s)@."
    (ms off) (ms on) (verdict on off);
  instrumented "C11" (fun () ->
      let remarks = explain_all () in
      Support.Remark.set_enabled false;
      List.iter
        (fun (pass, a, m, s) ->
          let g kind v =
            Support.Telemetry.set_gauge
              (Printf.sprintf "remark.%s.%s" pass kind)
              (float_of_int v)
          in
          g "applied" a;
          g "missed" m;
          g "skipped" s)
        (Support.Remark.counts remarks))

(* --- runtime micro-kernels (context for the groups above) ------------------------------------ *)

let bench_kernels () =
  let buf = Array.init 4096 float_of_int in
  let out = Array.make 4096 0. in
  micro "runtime kernels"
    [
      ( "simd add 4-lane over 4096 floats",
        50,
        fun () ->
          let i = ref 0 in
          while !i + 4 <= 4096 do
            Runtime.Simd.store out !i
              (Runtime.Simd.add
                 (Runtime.Simd.load buf !i ~width:4)
                 (Runtime.Simd.load out !i ~width:4));
            i := !i + 4
          done );
      ( "scalar add over 4096 floats",
        1_000,
        fun () ->
          for i = 0 to 4095 do
            out.(i) <- out.(i) +. buf.(i)
          done );
    ]

(* --- bench --compare: regression gate against a committed baseline ---------------- *)

(* Re-measure every native row of a BENCH_kernels.json baseline through
   its kind's measured path and fail when the current median is more
   than 25% above the baseline value.  Speed-ups and small noise pass;
   the gate is for catching real regressions in the native path. *)
let compare_threshold = 1.25

let bench_compare baseline_path =
  let module J = Support.Json in
  let baseline =
    try J.parse_file baseline_path
    with
    | Sys_error m ->
        Fmt.epr "bench --compare: cannot read %s: %s@." baseline_path m;
        exit 2
    | J.Bad_json m ->
        Fmt.epr "bench --compare: %s is not valid JSON: %s@." baseline_path m;
        exit 2
  in
  let pct = (compare_threshold -. 1.) *. 100. in
  Fmt.pr "=== bench --compare vs %s (fail on >%.0f%% slowdown) ===@."
    baseline_path pct;
  let failures = ref 0 in
  let data = native_cube () in
  List.iter
    (fun kind ->
      match Option.bind (J.field kind.section baseline) J.arr with
      | None -> ()
      | Some rows -> (
          match Native.Toolchain.probe () with
          | Error e ->
              Fmt.epr "  baseline has %s rows but %s — skipping@."
                kind.section
                (Native.Toolchain.describe_error e)
          | Ok _ ->
              Driver.with_data_dir None @@ fun cache_dir ->
              List.iter
                (fun row ->
                  match
                    ( Option.bind (J.field "prog" row) J.str,
                      J.num_field row kind.field )
                  with
                  | Some prog, Some baseline_ms -> (
                      match List.assoc_opt prog kind.progs with
                      | Some (Some src) ->
                          with_input data (fun dir ->
                              let cur =
                                measure (fun () -> kind.run ~cache_dir ~dir src)
                              in
                              let current_ms = cur.med *. 1000. in
                              let ratio = current_ms /. baseline_ms in
                              let bad = ratio > compare_threshold in
                              if bad then incr failures;
                              Fmt.pr
                                "  %-28s baseline %9.2f ms   now %s ms   \
                                 %5.2fx %s@."
                                (String.map
                                   (fun c -> if c = '_' then '-' else c)
                                   kind.section
                                ^ " " ^ prog)
                                baseline_ms (ms cur) ratio
                                (if bad then "REGRESSION" else "ok"))
                      | _ ->
                          Fmt.epr
                            "  baseline %s row %S unavailable — skipping@."
                            kind.section prog)
                  | _ -> ())
                rows))
    native_kinds;
  if !failures > 0 then begin
    Fmt.pr "@.%d row(s) regressed beyond %.0f%%.@." !failures pct;
    exit 1
  end
  else Fmt.pr "@.no row regressed beyond %.0f%%.@." pct

(* --- bench --check-profile-json / --check-explain-json: schema validators -------- *)

(* The structural contracts live in [Driver.Profile_report.validate_json]
   and [Driver.Explain_report.validate_json] — the same checkers the test
   suite applies, so `mmc profile --json` (interpreter and native) and
   `mmc explain --json` are each held to one schema from one place.
   This wrapper only adds file IO and the exit-code protocol for `make
   profile-check` / `make explain-check`. *)
let check_json ~what validate path =
  let module J = Support.Json in
  let problems =
    try validate (J.parse_file path) with
    | Sys_error m -> [ Printf.sprintf "cannot read %s: %s" path m ]
    | J.Bad_json m -> [ Printf.sprintf "invalid JSON: %s" m ]
  in
  match problems with
  | [] ->
      Fmt.pr "%s: %s JSON schema ok.@." path what;
      exit 0
  | ps ->
      List.iter (fun p -> Fmt.epr "%s: %s@." path p) ps;
      exit 1

(* --- C15: per-process fixed cost ------------------------------------------------------ *)

let mmc_exe =
  List.find_opt Sys.file_exists
    [ "_build/default/bin/mmc.exe"; "../bin/mmc.exe" ]

(* Run the CLI to completion with its output discarded; a failure is
   fatal, so a broken subcommand cannot pass for a fast one. *)
let run_mmc exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null
          null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ ->
      Fmt.epr "mmc %s failed@." (String.concat " " args);
      exit 1

(* What every `mmc emit/run/exec` pays before its program runs, on
   eddy_energy: [Driver.compose] in-process with its compose.* split,
   read from the library's own spans of the same calls, then the process
   wall of `mmc emit` and of a warm `mmc exec` (the warmup call fills the
   binary cache, so the timed calls hit it and skip compiler and probe). *)
let bench_fixed_cost ?(reps = 7) () =
  Fmt.pr "@.=== C15: per-process fixed cost (eddy_energy) ===@.";
  let samples =
    List.map
      (fun name -> (name, ref []))
      [
        "driver.compose"; "compose.determinism"; "compose.wellformed";
        "compose.lalr"; "compose.scanner";
      ]
  in
  let traced () =
    Support.Telemetry.reset ();
    Support.Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Support.Telemetry.set_enabled false)
      (fun () -> ignore (Driver.compose Driver.all_extensions));
    let spans = Support.Telemetry.spans () in
    List.iter
      (fun (name, acc) ->
        acc :=
          List.fold_left
            (fun t (sp : Support.Telemetry.span) ->
              if sp.sp_name = name then t +. sp.sp_dur else t)
            0. spans
          :: !acc)
      samples
  in
  ignore (measure ~reps traced);
  Support.Telemetry.reset ();
  Fmt.pr "  %-36s %24s@." "in-process" "time (ms)";
  List.iter
    (fun (name, acc) ->
      (* the oldest sample is the warmup call's *)
      let timed = Array.of_list (List.tl (List.rev !acc)) in
      let label = if name = "driver.compose" then name else "  " ^ name in
      Fmt.pr "  %-36s %24s@." label (ms (stat_of timed)))
    samples;
  match (mmc_exe, example_path "eddy_energy.mc") with
  | None, _ | _, None ->
      Fmt.pr "  process rows skipped: mmc.exe or eddy_energy.mc not found@."
  | Some exe, Some eddy ->
      let emit = measure ~reps (fun () -> run_mmc exe [ "emit"; eddy ]) in
      Fmt.pr "  %-36s %24s@." "process wall: mmc emit" (ms emit);
      with_cc @@ fun _ ->
      Driver.with_data_dir None @@ fun cache_dir ->
      let warm =
        measure ~reps (fun () ->
            run_mmc exe [ "exec"; "--cache-dir"; cache_dir; eddy ])
      in
      Fmt.pr "  %-36s %24s@." "process wall: warm mmc exec" (ms warm);
      Fmt.pr "  warm exec / emit: %s@." (verdict warm emit)

(* Smoke mode: one spawn-per-region run and one tiny pool region, the
   two sides of C5 (keeps [Pool.naive_parallel_for], the C5 baseline,
   exercised), then [measure] and [verdict] on both sides, then C15 at 3
   repeats. *)
let smoke_check () =
  let covers name run =
    let sink = Array.make 1_000 (-1) in
    run (fun i -> sink.(i) <- i);
    let ok = Array.for_all (fun x -> x >= 0) sink in
    Fmt.pr "  %s smoke: %s@." name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  covers "spawn-per-region baseline" (Runtime.Pool.naive_parallel_for 2 0 1_000);
  covers "C5 pool region" (fun body ->
      Runtime.Pool.with_pool 2 (fun pool ->
          Runtime.Pool.parallel_for pool 0 1_000 body));
  let sink = Array.make 1_000 0 in
  let body i = sink.(i) <- i in
  let pool = pool_side ~reps:3 ~regions:1 ~work:1_000 ~body 2 in
  let spawn = spawn_side ~reps:3 ~regions:1 ~work:1_000 ~body 2 in
  let sane s =
    List.for_all Float.is_finite [ s.q1; s.med; s.q3 ]
    && s.q1 <= s.med && s.med <= s.q3
  in
  let ok = sane pool && sane spawn in
  Fmt.pr "  measure smoke: pool %s, spawn %s, spawn/pool %s: %s@."
    (per_call pool) (per_call spawn) (verdict spawn pool)
    (if ok then "ok" else "FAIL");
  if not ok then exit 1;
  bench_fixed_cost ~reps:3 ();
  Fmt.pr "@.smoke ok.@."

(* Value of a "--flag FILE" pair on the command line. *)
let flag_value name =
  let argv = Sys.argv in
  let r = ref None in
  Array.iteri
    (fun i a ->
      if String.equal a name && i + 1 < Array.length argv then
        r := Some argv.(i + 1))
    argv;
  !r

let () =
  Option.iter
    (check_json ~what:"profile" Driver.Profile_report.validate_json)
    (flag_value "--check-profile-json");
  Option.iter
    (check_json ~what:"explain" (Driver.Explain_report.validate_json c_full))
    (flag_value "--check-explain-json");
  (match flag_value "--compare" with
  | Some path ->
      bench_compare path;
      exit 0
  | None -> ());
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  Fmt.pr "mmc benchmark harness — regenerates the experiment groups of \
          DESIGN.md §4%s@."
    (if smoke then " (smoke mode)" else "");
  Fmt.pr "machine: %d core(s) visible to OCaml@." cores;
  if smoke then smoke_check ()
  else begin
    bench_kernels ();
    bench_composition ();
    bench_fusion ();
    bench_slice_elim ();
    bench_transform_variants ();
    bench_forkjoin ();
    bench_refcount ();
    bench_scaling ();
    bench_native ();
    bench_native_profile ();
    bench_native_guards ();
    bench_fixed_cost ();
    write_bench_kernels ();
    bench_remarks ();
    write_bench_telemetry ();
    Fmt.pr "@.done.@."
  end
