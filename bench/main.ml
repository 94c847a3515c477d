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

   Micro-kernels are measured with Bechamel (OLS over the monotonic
   clock); whole-program runs with repeated wall-clock medians.  Results
   are summarised against the paper's claims in EXPERIMENTS.md.

   [--smoke] runs a spawn-per-region sanity check and a tiny C5 pool
   region (seconds, no JSON output) — the target `make check` invokes so
   the perf plumbing cannot bit-rot silently. *)

open Bechamel
open Toolkit
module Nd = Runtime.Ndarray

let cores = Domain.recommended_domain_count ()

(* --- measurement helpers ----------------------------------------------------- *)

let bechamel_group name (tests : Test.t list) =
  Fmt.pr "@.--- %s (Bechamel OLS, monotonic clock) ---@." name;
  let grouped = Test.make_grouped ~name tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun k v acc ->
        let est =
          match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> nan
        in
        (k, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (k, ns) ->
      if ns >= 1e6 then Fmt.pr "  %-48s %10.3f ms/run@." k (ns /. 1e6)
      else if ns >= 1e3 then Fmt.pr "  %-48s %10.3f us/run@." k (ns /. 1e3)
      else Fmt.pr "  %-48s %10.1f ns/run@." k ns)
    rows;
  rows

(* median wall-clock of [reps] runs *)
let wall ?(reps = 3) f =
  let times =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
    |> List.sort compare
  in
  List.nth times (reps / 2)

(* Minimum wall-clock of [reps] runs: the right statistic when two
   variants of the same computation are compared for a small additive
   cost (C13) — the min is the least-noise floor of each, where the
   median still carries scheduler jitter several times the effect. *)
let wall_min ?(reps = 5) f =
  List.init reps (fun _ ->
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0)
  |> List.fold_left min infinity

(* --- shared setup ---------------------------------------------------------------- *)

let c_full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]
let c_norc = Driver.compose [ Driver.matrix; Driver.transform ]

let with_input cube f =
  Driver.with_data_dir None (fun dir ->
      Interp.Eval.provide_input ~dir "ssh.data" cube;
      f dir)

(* [pass] switches one pass of [c]'s default pipeline on or off. *)
let run_prog ?pool ?pass ~c ~dir src =
  let config =
    match pass with
    | Some (name, on) -> Driver.Pipeline.enable (Driver.default_config c) name on
    | None -> Driver.default_config c
  in
  match Driver.run ~dir ?pool ~config c src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Fmt.epr "bench program failed: %s@." (Driver.diags_to_string ds);
      exit 1

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
  let threads = [ 1; 2; 4; 8 ] in
  let base = ref 0. in
  Fmt.pr "  %8s %12s %9s@." "threads" "wall (ms)" "speedup";
  List.iter
    (fun t ->
      let secs =
        if t = 1 then
          with_input data (fun dir ->
              wall (fun () ->
                  run_prog ~c:c_full ~dir ~pass:("auto-par", true)
                    Eddy.Programs.fig1_temporal_mean))
        else
          Runtime.Pool.with_pool t (fun pool ->
              with_input data (fun dir ->
                  wall (fun () ->
                      run_prog ~c:c_full ~dir ~pool ~pass:("auto-par", true)
                        Eddy.Programs.fig1_temporal_mean)))
      in
      if t = 1 then base := secs;
      Fmt.pr "  %8d %12.1f %9.2fx@." t (secs *. 1000.) (!base /. secs))
    threads;
  instrumented "C1" (fun () ->
      Runtime.Pool.with_pool 2 (fun pool ->
          with_input data (fun dir ->
              run_prog ~c:c_full ~dir ~pool ~pass:("auto-par", true)
                Eddy.Programs.fig1_temporal_mean)))

(* --- C2: fusion vs library-style temp + copy ----------------------------------------- *)

let bench_fusion () =
  Fmt.pr "@.=== C2: with-loop/assignment fusion (§III-A5) ===@.";
  Fmt.pr "  %-14s %12s %12s %8s@." "size" "fused(ms)" "library(ms)" "ratio";
  List.iter
    (fun (m, n, p) ->
      let data = cube ~m ~n ~p in
      let fused =
        with_input data (fun dir ->
            wall (fun () ->
                run_prog ~c:c_full ~dir ~pass:("fuse", true)
                  Eddy.Programs.fig1_temporal_mean))
      in
      let library =
        with_input data (fun dir ->
            wall (fun () ->
                run_prog ~c:c_full ~dir ~pass:("fuse", false)
                  Eddy.Programs.fig1_temporal_mean))
      in
      Fmt.pr "  %4dx%4dx%3d %12.1f %12.1f %8.2fx@." m n p (fused *. 1000.)
        (library *. 1000.) (library /. fused))
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
  Fmt.pr "  %-14s %14s %14s %11s %11s@." "size" "optimized(ms)" "naive(ms)"
    "allocs opt" "allocs no";
  List.iter
    (fun (m, n, p) ->
      let data = cube ~m ~n ~p in
      let measure ~copy_elim =
        with_input data (fun dir ->
            Runtime.Rc.reset ();
            let t =
              wall ~reps:3 (fun () ->
                  run_prog ~c:c_full ~dir ~pass:("copy-elim", copy_elim)
                    Eddy.Programs.fig1_with_slice_copy)
            in
            (t, (Runtime.Rc.stats ()).Runtime.Rc.allocs))
      in
      let t_opt, a_opt = measure ~copy_elim:true in
      let t_no, a_no = measure ~copy_elim:false in
      Fmt.pr "  %4dx%4dx%3d %14.1f %14.1f %11d %11d@." m n p (t_opt *. 1000.)
        (t_no *. 1000.) a_opt a_no)
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
  Fmt.pr "  %-32s %12s@." "variant" "wall (ms)";
  List.iter
    (fun (label, src, threads) ->
      let secs =
        if threads > 1 then
          Runtime.Pool.with_pool threads (fun pool ->
              with_input data (fun dir ->
                  wall (fun () -> run_prog ~c:c_full ~dir ~pool src)))
        else
          with_input data (fun dir ->
              wall (fun () -> run_prog ~c:c_full ~dir src))
      in
      Fmt.pr "  %-32s %12.1f@." label (secs *. 1000.))
    variants;
  instrumented "C4" (fun () ->
      with_input data (fun dir ->
          run_prog ~c:c_full ~dir
            (Eddy.Programs.fig9_with_script "tile i, j by 8")))

(* --- C5: enhanced fork-join vs naive spawn-per-region ------------------------------------ *)

let bench_forkjoin () =
  Fmt.pr "@.=== C5: enhanced fork-join (§III-C) ===@.";
  let regions = 200 and work = 2_000 in
  let sink = Array.make work 0 in
  let body i = sink.(i) <- sink.(i) + 1 in
  let pool_time t =
    Runtime.Pool.with_pool t (fun pool ->
        wall (fun () ->
            for _ = 1 to regions do
              Runtime.Pool.parallel_for pool 0 work body
            done))
  in
  let naive_time t =
    wall ~reps:1 (fun () ->
        for _ = 1 to regions do
          Runtime.Pool.naive_parallel_for t 0 work body
        done)
  in
  Fmt.pr "  %d parallel regions of %d iterations each:@." regions work;
  Fmt.pr "  %8s %12s %22s %8s@." "threads" "pool (ms)"
    "spawn-per-region (ms)" "ratio";
  List.iter
    (fun t ->
      let p = pool_time t and n = naive_time t in
      Fmt.pr "  %8d %12.1f %22.1f %8.1fx@." t (p *. 1000.) (n *. 1000.)
        (n /. p))
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
  let with_rc =
    with_input data (fun dir ->
        wall (fun () ->
            run_prog ~c:c_full ~dir Eddy.Programs.fig1_temporal_mean))
  in
  let without_rc =
    with_input data (fun dir ->
        wall (fun () ->
            run_prog ~c:c_norc ~dir Eddy.Programs.fig1_temporal_mean))
  in
  Fmt.pr "  Fig 1 workload: rc on %.1f ms, rc off %.1f ms (overhead %+.1f%%)@."
    (with_rc *. 1000.)
    (without_rc *. 1000.)
    (((with_rc /. without_rc) -. 1.) *. 100.);
  (* §III-C: "most allocations made are relatively infrequent and are
     large" — hot-path costs of the rc primitives: *)
  ignore
    (bechamel_group "rc primitives"
       [
         Test.make ~name:"alloc+release 4KiB payload"
           (Staged.stage (fun () ->
                let cell = Runtime.Rc.alloc ~bytes:4096 (Array.make 512 0.) in
                Runtime.Rc.decr_ cell));
         Test.make ~name:"inc/dec pair on a live cell"
           (let cell = Runtime.Rc.alloc ~bytes:0 () in
            Staged.stage (fun () ->
                Runtime.Rc.incr_ cell;
                Runtime.Rc.decr_ cell));
       ]);
  instrumented "C6" (fun () ->
      with_input data (fun dir ->
          run_prog ~c:c_full ~dir Eddy.Programs.fig1_temporal_mean))

(* --- C7: composition cost and analyses (§VI) ------------------------------------------------ *)

let bench_composition () =
  Fmt.pr "@.=== C7: grammar composition and composability analyses (§VI) ===@.";
  let time_of f = wall ~reps:3 f in
  let t_host =
    time_of (fun () -> ignore (Grammar.Lalr.build Driver.effective_host))
  in
  let t_matrix =
    time_of (fun () ->
        ignore
          (Grammar.Lalr.build
             (Grammar.Cfg.compose Driver.effective_host
                [ Ext_matrix.Matrix_ext.grammar ])))
  in
  let t_all =
    time_of (fun () ->
        ignore
          (Grammar.Lalr.build
             (Grammar.Cfg.compose Driver.effective_host
                [
                  Ext_matrix.Matrix_ext.grammar;
                  Ext_transform.Transform_ext.grammar;
                ])))
  in
  let t_analysis =
    time_of (fun () ->
        ignore
          (Grammar.Determinism.check Driver.effective_host
             Ext_matrix.Matrix_ext.grammar))
  in
  let t_compose_full =
    time_of (fun () -> ignore (Driver.compose Driver.all_extensions))
  in
  let states sel = (Driver.compose sel).Driver.table.Grammar.Lalr.n_states in
  Fmt.pr "  %-46s %10s %8s@." "configuration" "time (ms)" "states";
  Fmt.pr "  %-46s %10.1f %8d@." "host alone (LALR tables)" (t_host *. 1000.)
    (states []);
  Fmt.pr "  %-46s %10.1f %8d@." "host + matrix" (t_matrix *. 1000.)
    (states [ Driver.matrix ]);
  Fmt.pr "  %-46s %10.1f %8d@." "host + matrix + transform" (t_all *. 1000.)
    (states [ Driver.matrix; Driver.transform ]);
  Fmt.pr "  %-46s %10.1f %8s@." "isComposable(host, matrix)"
    (t_analysis *. 1000.) "-";
  Fmt.pr "  %-46s %10.1f %8s@."
    "full compose (analyses + tables + scanner DFAs)"
    (t_compose_full *. 1000.) "-";
  Fmt.pr "  analyses verdicts: matrix/transform/refptr PASS; tuples FAILS \
          (host-packaged) — see examples/extensibility_demo.@.";
  instrumented "C7" (fun () ->
      ignore (Driver.compose Driver.all_extensions))

(* --- BENCH_kernels.json: the native rows of C12-C14 ---------------------------------------- *)

(* C12 rows (prog, interp_ms, native_ms, compile_ms); filled by
   [bench_native] before [write_bench_kernels] runs. *)
let native_rows : (string * float * float * float) list ref = ref []

(* C13 rows (prog, plain_ms, instrumented_ms, overhead_pct); filled by
   [bench_native_profile] before [write_bench_kernels] runs. *)
let native_profile_rows : (string * float * float * float) list ref = ref []

(* C14 rows (prog, plain_ms, guards_ms, overhead_pct); filled by
   [bench_native_guards] before [write_bench_kernels] runs. *)
let native_guards_rows : (string * float * float * float) list ref = ref []

(* --- C12: native execution vs the interpreter (§II) ------------------------------------------- *)

(* The paper's pipeline hands the emitted C to "a traditional compiler";
   `mmc exec` does exactly that.  C12 measures what that buys: end-to-end
   wall time of the interpreted path (`mmc run`) against the native path
   (`mmc exec`, binary cache warm so compilation is excluded), plus the
   one-time cost of the C compile itself.  Rows land in
   BENCH_kernels.json as {prog, interp_ms, native_ms, compile_ms} and are
   regression-gated by `bench --compare`. *)

let native_progs =
  [
    ("fig1", Eddy.Programs.fig1_temporal_mean);
    ("fig9", Eddy.Programs.fig9_transformed);
  ]

let native_cube () = cube ~m:48 ~n:64 ~p:32

let exec_native ~cache_dir ~dir src =
  match Driver.exec ~dir ~cache_dir c_full src with
  | Driver.Ok_ o -> o
  | Driver.Failed ds ->
      Fmt.epr "native bench program failed: %s@." (Driver.diags_to_string ds);
      exit 1

let bench_native () =
  Fmt.pr "@.=== C12: native execution vs interpreter (§II) ===@.";
  match Native.Toolchain.probe () with
  | Error e ->
      Fmt.pr "  skipped: %s@." (Native.Toolchain.describe_error e)
  | Ok tc ->
      Fmt.pr "  cc: %s%s@." tc.Native.Toolchain.cc
        (if tc.Native.Toolchain.openmp then " (OpenMP live)"
         else " (no OpenMP: sequential fallback)");
      let data = native_cube () in
      Driver.with_data_dir None @@ fun cache_dir ->
      Fmt.pr "  %-8s %12s %12s %13s %9s@." "prog" "interp(ms)" "native(ms)"
        "compile(ms)" "speedup";
      List.iter
        (fun (name, src) ->
          with_input data (fun dir ->
              let interp =
                wall (fun () -> run_prog ~c:c_full ~dir src)
              in
              (* Cold exec fills the cache; the compile-time gauge is the
                 C compiler's share of it. *)
              Support.Telemetry.reset ();
              Support.Telemetry.set_enabled true;
              ignore (exec_native ~cache_dir ~dir src);
              let compile_ms =
                match
                  List.assoc_opt "native.compile_ns"
                    (Support.Telemetry.gauges ())
                with
                | Some ns -> ns /. 1e6
                | None -> 0.
              in
              Support.Telemetry.set_enabled false;
              Support.Telemetry.reset ();
              (* Warm path: frontend + lower + cache hit + run. *)
              let native =
                wall (fun () -> ignore (exec_native ~cache_dir ~dir src))
              in
              native_rows :=
                (name, interp *. 1000., native *. 1000., compile_ms)
                :: !native_rows;
              Fmt.pr "  %-8s %12.1f %12.1f %13.1f %8.2fx@." name
                (interp *. 1000.) (native *. 1000.) compile_ms
                (interp /. native)))
        native_progs;
      instrumented "C12" (fun () ->
          with_input data (fun dir ->
              ignore
                (exec_native ~cache_dir ~dir Eddy.Programs.fig1_temporal_mean)))

(* --- C13: native profiling overhead and interp/native span ratios (§II) ----------------------- *)

(* The instrumented binary pays one mm_prof_enter/exit pair per executed
   provenance span plus a worker-clock read per parallel region; the
   acceptance bar is <10% end-to-end overhead on the paper corpus.
   Warm-cache wall times of plain `mmc exec` vs `mmc profile --native`
   land in BENCH_kernels.json as {prog, plain_ms, instrumented_ms,
   overhead_pct} and are regression-gated by `bench --compare`; the
   per-span interp/native self-time ratios go out as C13 telemetry
   gauges so the BENCH trajectory tracks where native code gains least. *)

let profile_example name =
  List.find_opt Sys.file_exists
    [ Filename.concat "examples" name; Filename.concat "../examples" name ]
  |> Option.map (fun p -> In_channel.with_open_text p In_channel.input_all)

let native_profile_progs () =
  [
    ("fig1", Some Eddy.Programs.fig1_temporal_mean);
    ("fig9", Some Eddy.Programs.fig9_transformed);
    ("eddy_energy", profile_example "eddy_energy.mc");
  ]

(* [~auto_par:false] matches the sequential lowering [exec_native] uses,
   so plain and instrumented binaries differ only in the probes — with
   the default auto-par lowering the instrumented side would also pay
   one GOMP single-thread region launch per dispatch (~1.8 ms on
   eddy_energy), which is OpenMP overhead, not instrumentation. *)
let profile_native_once ~cache_dir ~dir src =
  match
    Driver.profile_native
      ~config:(Driver.default_config c_full)
      ~dir ~cache_dir c_full src
  with
  | Driver.Ok_ (o, report) -> (o, report)
  | Driver.Failed ds ->
      Fmt.epr "native profile bench failed: %s@." (Driver.diags_to_string ds);
      exit 1

let bench_native_profile () =
  Fmt.pr "@.=== C13: native profiling overhead (§II) ===@.";
  match Native.Toolchain.probe () with
  | Error e -> Fmt.pr "  skipped: %s@." (Native.Toolchain.describe_error e)
  | Ok _ ->
      let data = native_cube () in
      Driver.with_data_dir None @@ fun cache_dir ->
      Fmt.pr "  %-12s %10s %16s %9s %9s@." "prog" "plain(ms)"
        "instrumented(ms)" "overhead" "coverage";
      List.iter
        (fun (name, src) ->
          match src with
          | None -> Fmt.pr "  %-12s source not found — skipped@." name
          | Some src ->
              with_input data (fun dir ->
                  (* cold runs fill both cache slots, so the timed reps
                     measure the run, not the C compiler *)
                  ignore (exec_native ~cache_dir ~dir src);
                  let _, report = profile_native_once ~cache_dir ~dir src in
                  let plain =
                    wall_min ~reps:7 (fun () ->
                        ignore (exec_native ~cache_dir ~dir src))
                  in
                  let instr =
                    wall_min ~reps:7 (fun () ->
                        ignore (profile_native_once ~cache_dir ~dir src))
                  in
                  let overhead = (instr -. plain) /. plain *. 100. in
                  native_profile_rows :=
                    (name, plain *. 1000., instr *. 1000., overhead)
                    :: !native_profile_rows;
                  Fmt.pr "  %-12s %10.2f %16.2f %8.1f%% %8.1f%%@." name
                    (plain *. 1000.) (instr *. 1000.) overhead
                    (Driver.Profile_report.coverage report *. 100.)))
        (native_profile_progs ());
      instrumented "C13" (fun () ->
          with_input data (fun dir ->
              let src = Eddy.Programs.fig1_temporal_mean in
              let interp =
                match
                  Driver.profile
                    ~config:(Driver.default_config c_full)
                    ~dir c_full src []
                with
                | Driver.Ok_ _, report -> report
                | Driver.Failed ds, _ ->
                    Fmt.epr "interp profile bench failed: %s@."
                      (Driver.diags_to_string ds);
                    exit 1
              in
              let _, native = profile_native_once ~cache_dir ~dir src in
              let d =
                Driver.Profile_report.diff_reports ~src ~interp ~native
              in
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
                d.Driver.Profile_report.diff_rows))

(* --- C14: emitted-C runtime guard overhead (§II) ---------------------------------------------- *)

(* `mmc exec --guards` routes every emitted subscript through the
   MM_GUARD_IDX bounds/NULL check and pushes crash breadcrumbs around
   provenance sites; the acceptance bar is <=15% end-to-end overhead on
   the paper corpus.  Warm-cache min-of-7 wall times of plain vs guarded
   `mmc exec` land in BENCH_kernels.json as {prog, plain_ms, guards_ms,
   overhead_pct} and are regression-gated by `bench --compare`. *)

let exec_native_guards ~cache_dir ~dir src =
  match Driver.exec ~guards:true ~dir ~cache_dir c_full src with
  | Driver.Ok_ o -> o
  | Driver.Failed ds ->
      Fmt.epr "guarded bench program failed: %s@." (Driver.diags_to_string ds);
      exit 1

let bench_native_guards () =
  Fmt.pr "@.=== C14: runtime guard overhead (§II) ===@.";
  match Native.Toolchain.probe () with
  | Error e -> Fmt.pr "  skipped: %s@." (Native.Toolchain.describe_error e)
  | Ok _ ->
      let data = native_cube () in
      Driver.with_data_dir None @@ fun cache_dir ->
      Fmt.pr "  %-12s %10s %12s %9s@." "prog" "plain(ms)" "guards(ms)"
        "overhead";
      List.iter
        (fun (name, src) ->
          match src with
          | None -> Fmt.pr "  %-12s source not found — skipped@." name
          | Some src ->
              with_input data (fun dir ->
                  (* cold runs fill both cache slots, so the timed reps
                     measure the run, not the C compiler *)
                  ignore (exec_native ~cache_dir ~dir src);
                  ignore (exec_native_guards ~cache_dir ~dir src);
                  let plain =
                    wall_min ~reps:7 (fun () ->
                        ignore (exec_native ~cache_dir ~dir src))
                  in
                  let guarded =
                    wall_min ~reps:7 (fun () ->
                        ignore (exec_native_guards ~cache_dir ~dir src))
                  in
                  let overhead = (guarded -. plain) /. plain *. 100. in
                  native_guards_rows :=
                    (name, plain *. 1000., guarded *. 1000., overhead)
                    :: !native_guards_rows;
                  Fmt.pr "  %-12s %10.2f %12.2f %8.1f%%@." name
                    (plain *. 1000.) (guarded *. 1000.) overhead))
        (native_profile_progs ());
      instrumented "C14" (fun () ->
          with_input data (fun dir ->
              ignore
                (exec_native_guards ~cache_dir ~dir
                   Eddy.Programs.fig1_temporal_mean)))

(* The rows C12-C14 collected, as the baseline `bench --compare` gates. *)
let write_bench_kernels () =
  (* rows are consed on as they are measured; rev_map restores the order *)
  let section key fmt_row rows =
    match List.rev_map fmt_row rows with
    | [] -> ""
    | rows -> Printf.sprintf ",\n \"%s\":[%s]" key (String.concat ",\n  " rows)
  in
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc "{\"machine_cores\":%d%s%s%s}\n" cores
    (section "native"
       (fun (prog, interp_ms, native_ms, compile_ms) ->
         Printf.sprintf
           "{\"prog\":%S,\"interp_ms\":%.3f,\"native_ms\":%.3f,\"compile_ms\":%.3f,\"speedup\":%.2f}"
           prog interp_ms native_ms compile_ms (interp_ms /. native_ms))
       !native_rows)
    (section "native_profile"
       (fun (prog, plain_ms, instr_ms, overhead_pct) ->
         Printf.sprintf
           "{\"prog\":%S,\"plain_ms\":%.3f,\"instrumented_ms\":%.3f,\"overhead_pct\":%.2f}"
           prog plain_ms instr_ms overhead_pct)
       !native_profile_rows)
    (section "native_guards"
       (fun (prog, plain_ms, guards_ms, overhead_pct) ->
         Printf.sprintf
           "{\"prog\":%S,\"plain_ms\":%.3f,\"guards_ms\":%.3f,\"overhead_pct\":%.2f}"
           prog plain_ms guards_ms overhead_pct)
       !native_guards_rows);
  close_out oc;
  Fmt.pr "@.native rows written to BENCH_kernels.json@."

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
  let off = wall lower_all in
  let remarks = explain_all () in
  Support.Remark.set_enabled false;
  let on = wall (fun () -> ignore (explain_all ())) in
  Support.Remark.set_enabled false;
  Fmt.pr "  %-24s %8s %8s %8s@." "pass" "applied" "missed" "skipped";
  List.iter
    (fun (pass, a, m, s) -> Fmt.pr "  %-24s %8d %8d %8d@." pass a m s)
    (Support.Remark.counts remarks);
  Fmt.pr "  remark tax: lowering %.1f ms silent, %.1f ms collecting@."
    (off *. 1000.) (on *. 1000.);
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
  ignore
    (bechamel_group "runtime kernels"
       [
         Test.make ~name:"simd add 4-lane over 4096 floats"
           (Staged.stage (fun () ->
                let i = ref 0 in
                while !i + 4 <= 4096 do
                  Runtime.Simd.store out !i
                    (Runtime.Simd.add
                       (Runtime.Simd.load buf !i ~width:4)
                       (Runtime.Simd.load out !i ~width:4));
                  i := !i + 4
                done));
         Test.make ~name:"scalar add over 4096 floats"
           (Staged.stage (fun () ->
                for i = 0 to 4095 do
                  out.(i) <- out.(i) +. buf.(i)
                done));
       ])

(* --- bench --compare: regression gate against a committed baseline ---------------- *)

(* Re-measure the native rows of a BENCH_kernels.json baseline (warm
   `mmc exec`, instrumented and guarded runs) and fail on >25% slowdown
   of any of them.  Speed-ups and small noise pass; the gate is for
   catching real regressions in the native path. *)
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
  Fmt.pr "=== bench --compare vs %s (fail on >%.0f%% slowdown) ===@."
    baseline_path
    ((compare_threshold -. 1.) *. 100.);
  let failures = ref 0 in
  let check name ~baseline_ms ~current_ms =
    let ratio = current_ms /. baseline_ms in
    let bad = ratio > compare_threshold in
    if bad then incr failures;
    Fmt.pr "  %-28s baseline %9.2f ms   now %9.2f ms   %5.2fx %s@." name
      baseline_ms current_ms ratio
      (if bad then "REGRESSION" else "ok")
  in
  (* C12 rows: re-run each baselined program through the warm native path
     and gate its wall time.  Without a C compiler the rows are reported
     as skipped, never failed. *)
  (match Option.bind (J.field "native" baseline) J.arr with
  | None -> ()
  | Some rows -> (
      match Native.Toolchain.probe () with
      | Error e ->
          Fmt.epr "  baseline has native rows but %s — skipping@."
            (Native.Toolchain.describe_error e)
      | Ok _ ->
          Driver.with_data_dir None @@ fun cache_dir ->
          let data = native_cube () in
          List.iter
            (fun row ->
              match
                ( Option.bind (J.field "prog" row) J.str,
                  J.num_field row "native_ms" )
              with
              | Some prog, Some base_ms -> (
                  match List.assoc_opt prog native_progs with
                  | None ->
                      Fmt.epr "  baseline native row %S unknown — skipping@."
                        prog
                  | Some src ->
                      with_input data (fun dir ->
                          (* first exec compiles; the timed reps hit the cache *)
                          ignore (exec_native ~cache_dir ~dir src);
                          let cur =
                            wall ~reps:5 (fun () ->
                                ignore (exec_native ~cache_dir ~dir src))
                            *. 1000.
                          in
                          check ("native " ^ prog) ~baseline_ms:base_ms
                            ~current_ms:cur))
              | _ -> ())
            rows));
  (* C13 rows: re-run each baselined program through the warm
     instrumented path (`mmc profile --native` machinery) and gate its
     wall time; skipped without a C compiler. *)
  (match Option.bind (J.field "native_profile" baseline) J.arr with
  | None -> ()
  | Some rows -> (
      match Native.Toolchain.probe () with
      | Error e ->
          Fmt.epr "  baseline has native_profile rows but %s — skipping@."
            (Native.Toolchain.describe_error e)
      | Ok _ ->
          Driver.with_data_dir None @@ fun cache_dir ->
          let data = native_cube () in
          let srcs = native_profile_progs () in
          List.iter
            (fun row ->
              match
                ( Option.bind (J.field "prog" row) J.str,
                  J.num_field row "instrumented_ms" )
              with
              | Some prog, Some base_ms -> (
                  match List.assoc_opt prog srcs with
                  | Some (Some src) ->
                      with_input data (fun dir ->
                          (* first run compiles; the timed reps hit the
                             instrumented cache slot *)
                          ignore (profile_native_once ~cache_dir ~dir src);
                          let cur =
                            wall_min ~reps:7 (fun () ->
                                ignore
                                  (profile_native_once ~cache_dir ~dir src))
                            *. 1000.
                          in
                          check
                            ("native-profile " ^ prog)
                            ~baseline_ms:base_ms ~current_ms:cur)
                  | _ ->
                      Fmt.epr
                        "  baseline native_profile row %S unavailable — \
                         skipping@."
                        prog)
              | _ -> ())
            rows));
  (* C14 rows: re-run each baselined program with runtime guards on the
     warm guarded cache slot and gate its wall time; skipped without a C
     compiler. *)
  (match Option.bind (J.field "native_guards" baseline) J.arr with
  | None -> ()
  | Some rows -> (
      match Native.Toolchain.probe () with
      | Error e ->
          Fmt.epr "  baseline has native_guards rows but %s — skipping@."
            (Native.Toolchain.describe_error e)
      | Ok _ ->
          Driver.with_data_dir None @@ fun cache_dir ->
          let data = native_cube () in
          let srcs = native_profile_progs () in
          List.iter
            (fun row ->
              match
                ( Option.bind (J.field "prog" row) J.str,
                  J.num_field row "guards_ms" )
              with
              | Some prog, Some base_ms -> (
                  match List.assoc_opt prog srcs with
                  | Some (Some src) ->
                      with_input data (fun dir ->
                          (* first run compiles; the timed reps hit the
                             guarded cache slot *)
                          ignore (exec_native_guards ~cache_dir ~dir src);
                          let cur =
                            wall_min ~reps:7 (fun () ->
                                ignore
                                  (exec_native_guards ~cache_dir ~dir src))
                            *. 1000.
                          in
                          check
                            ("native-guards " ^ prog)
                            ~baseline_ms:base_ms ~current_ms:cur)
                  | _ ->
                      Fmt.epr
                        "  baseline native_guards row %S unavailable — \
                         skipping@."
                        prog)
              | _ -> ())
            rows));
  if !failures > 0 then begin
    Fmt.pr "@.%d row(s) regressed beyond %.0f%%.@." !failures
      ((compare_threshold -. 1.) *. 100.);
    exit 1
  end
  else Fmt.pr "@.no row regressed beyond %.0f%%.@."
         ((compare_threshold -. 1.) *. 100.)

(* --- bench --check-profile-json: schema validator for `mmc profile --json` -------- *)

(* The structural contract itself lives in
   [Driver.Profile_report.validate_json] — the same checker the test
   suite applies to both the interpreter's and the native backend's
   reports, so `mmc profile --json` and `mmc profile --native --json`
   are held to one schema from one place.  This wrapper only adds file
   IO and the exit-code protocol for `make profile-check`. *)
let check_profile_json path =
  let module J = Support.Json in
  let problems =
    try Driver.Profile_report.validate_json (J.parse_file path) with
    | Sys_error m -> [ Printf.sprintf "cannot read %s: %s" path m ]
    | J.Bad_json m -> [ Printf.sprintf "invalid JSON: %s" m ]
  in
  match problems with
  | [] ->
      Fmt.pr "%s: profile JSON schema ok.@." path;
      exit 0
  | ps ->
      List.iter (fun p -> Fmt.epr "%s: %s@." path p) ps;
      exit 1

(* --- bench --check-explain-json: schema validator for `mmc explain --json` -------- *)

(* Same contract style as [check_profile_json]: every remark entry names
   a known pass and kind, carries a span object with numeric fields and a
   non-empty message; the counts object holds the three numeric tallies
   per pass. *)
let check_explain_json path =
  let module J = Support.Json in
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let known_passes = [ "fuse"; "copy-elim"; "auto-par"; "rc"; "transform" ] in
  let known_kinds = [ "applied"; "missed"; "skipped" ] in
  (try
     let j = J.parse_file path in
     (match Option.bind (J.field "remarks" j) J.arr with
     | None -> bad "top-level: missing array \"remarks\""
     | Some remarks ->
         List.iteri
           (fun i r ->
             let ctx = Printf.sprintf "remarks[%d]" i in
             (match Option.bind (J.field "pass" r) J.str with
             | Some p when List.mem p known_passes -> ()
             | Some p -> bad "%s: unknown pass %S" ctx p
             | None -> bad "%s: missing string \"pass\"" ctx);
             (match Option.bind (J.field "kind" r) J.str with
             | Some k when List.mem k known_kinds -> ()
             | Some k -> bad "%s: unknown kind %S" ctx k
             | None -> bad "%s: missing string \"kind\"" ctx);
             (match Option.bind (J.field "message" r) J.str with
             | Some m when String.length m > 0 -> ()
             | Some _ -> bad "%s: empty message" ctx
             | None -> bad "%s: missing string \"message\"" ctx);
             (match J.field "span" r with
             | Some span ->
                 List.iter
                   (fun name ->
                     if J.num_field span name = None then
                       bad "%s: span missing number %S" ctx name)
                   [ "line"; "col"; "end_line"; "end_col" ]
             | None -> bad "%s: missing object \"span\"" ctx);
             match J.field "details" r with
             | Some (J.Obj _) | None -> ()
             | Some _ -> bad "%s: \"details\" is not an object" ctx)
           remarks);
     match J.field "counts" j with
     | None -> bad "top-level: missing object \"counts\""
     | Some (J.Obj passes) ->
         List.iter
           (fun (pass, tallies) ->
             if not (List.mem pass known_passes) then
               bad "counts: unknown pass %S" pass;
             List.iter
               (fun k ->
                 if J.num_field tallies k = None then
                   bad "counts.%s: missing number %S" pass k)
               known_kinds)
           passes
     | Some _ -> bad "top-level: \"counts\" is not an object"
   with
  | Sys_error m -> bad "cannot read %s: %s" path m
  | J.Bad_json m -> bad "invalid JSON: %s" m);
  match List.rev !problems with
  | [] ->
      Fmt.pr "%s: explain JSON schema ok.@." path;
      exit 0
  | ps ->
      List.iter (fun p -> Fmt.epr "%s: %s@." path p) ps;
      exit 1

(* Smoke mode: one spawn-per-region run and one tiny pool region, the
   two sides of C5 (keeps [Pool.naive_parallel_for], the C5 baseline,
   exercised). *)
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
  (match flag_value "--check-profile-json" with
  | Some path -> check_profile_json path
  | None -> ());
  (match flag_value "--check-explain-json" with
  | Some path -> check_explain_json path
  | None -> ());
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
    write_bench_kernels ();
    bench_remarks ();
    write_bench_telemetry ();
    Fmt.pr "@.done.@."
  end
