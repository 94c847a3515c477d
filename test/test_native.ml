(* Native backend execution: the emitted C compiled by the system C
   compiler and run as a real binary must agree with the reference
   interpreter bit-for-bit — on every corpus program, under every
   optimization-flag configuration, on randomized program shapes, and
   through the readMatrix/writeMatrix container files.  Plus the binary
   cache (hit on rerun, invalidation on flag change), --keep-c
   standalone recompiles, warning-clean emission under -Werror, and
   graceful degradation when there is no C compiler at all.

   Every case needing a real compiler probes first and skips visibly
   when none is available. *)

module Nd = Runtime.Ndarray
module S = Runtime.Scalar

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* One cache for the whole suite: after the first case compiles a corpus
   program, later cases re-running it hit the cache instead of cc. *)
let suite_cache = lazy (Tmp.suite_dir ())

let ensure_cc () =
  match Native.Toolchain.probe () with
  | Ok tc -> tc
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()

(* --- interp-vs-native differential harness ----------------------------- *)

let rec value_eq (i : Interp.Eval.value) (n : Native.Exec.value) =
  match (i, n) with
  | Interp.Eval.VUnit, Native.Exec.RVoid -> true
  | Interp.Eval.VNull, Native.Exec.RNull -> true
  | Interp.Eval.VScal a, Native.Exec.RScal b -> a = b
  | Interp.Eval.VMat a, Native.Exec.RMat b -> Nd.equal (Runtime.Rc.get a) b
  | Interp.Eval.VTuple a, Native.Exec.RTuple b ->
      Array.length a = Array.length b && Array.for_all2 value_eq a b
  | _ -> false

(* Run [src] through both backends with identical inputs and check that
   the result value, the live-allocation count and every output file
   agree exactly (matrix files bit-for-bit). *)
let differential ?(fuse = true) ?(copy_elim = true) ?(auto_par = false)
    ?(threads = 1) ?(cflags = []) ?live ~name ~inputs ~outputs src =
  ignore (ensure_cc ());
  Tmp.with_dir @@ fun dir_i -> Tmp.with_dir @@ fun dir_n ->
  List.iter
    (fun (p, m) ->
      Interp.Eval.provide_input ~dir:dir_i p m;
      Interp.Eval.provide_input ~dir:dir_n p m)
    inputs;
  Runtime.Rc.reset ();
  let config = Test_pipeline.pass_config full ~fuse ~copy_elim ~auto_par in
  let run_interp pool =
    match
      Driver.run ~dir:dir_i ~config ?pool full src []
    with
    | Driver.Ok_ v -> v
    | Driver.Failed ds ->
        Alcotest.failf "%s: interp failed: %s" name (Driver.diags_to_string ds)
  in
  let iv =
    if threads > 1 then
      Runtime.Pool.with_pool threads (fun p -> run_interp (Some p))
    else run_interp None
  in
  let ilive = Runtime.Rc.live_count () in
  let nv =
    match
      Driver.exec ~dir:dir_n ~config ~threads ~cflags
        ~cache_dir:(Lazy.force suite_cache) full src
    with
    | Driver.Ok_ o -> o
    | Driver.Failed ds ->
        Alcotest.failf "%s: native failed: %s" name (Driver.diags_to_string ds)
  in
  if not (value_eq iv nv.Native.Exec.value) then
    Alcotest.failf "%s: value mismatch: interp=%a native=%a" name
      Interp.Eval.pp_value iv Native.Exec.pp_value nv.Native.Exec.value;
  Alcotest.(check int) (name ^ ": live allocations at exit") ilive
    nv.Native.Exec.live;
  Option.iter
    (fun n -> Alcotest.(check int) (name ^ ": expected live count") n ilive)
    live;
  List.iter
    (fun out ->
      let a = Interp.Eval.fetch_output ~dir:dir_i out in
      let b = Interp.Eval.fetch_output ~dir:dir_n out in
      Alcotest.(check bool)
        (Printf.sprintf "%s: output %s bit-identical" name out)
        true (Nd.equal a b))
    outputs

(* --- corpus inputs ------------------------------------------------------ *)

let cube3 m n p =
  Nd.init_float [| m; n; p |] (fun ix ->
      float_of_int ((100 * ix.(0)) + (10 * ix.(1)))
      +. (0.5 *. float_of_int ix.(2)))

(* The planted trough signature of Fig 7, so fig8's scoring has real work. *)
let trough_cube () =
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  Nd.init_float [| 2; 3; 40 |] (fun ix -> ts ix.(2))

let example name =
  In_channel.with_open_text (Filename.concat "../examples" name)
    In_channel.input_all

(* --- per-corpus-program differentials ----------------------------------- *)

let test_fig1 () =
  differential ~name:"fig1" ~inputs:[ ("ssh.data", cube3 3 5 7) ]
    ~outputs:[ "means.data" ] Eddy.Programs.fig1_temporal_mean

let test_fig9 () =
  differential ~name:"fig9" ~inputs:[ ("ssh.data", cube3 4 12 6) ]
    ~outputs:[ "means.data" ] Eddy.Programs.fig9_transformed

let test_fig8 () =
  differential ~name:"fig8" ~inputs:[ ("ssh.data", trough_cube ()) ]
    ~outputs:[ "temporalScores.data" ] Eddy.Programs.fig8_scoring

let test_fig4 () =
  let ssh, _ = Eddy.Ssh_gen.generate ~lat:12 ~lon:14 ~time:4 ~n_eddies:2 ~seed:7 () in
  let dates = Nd.init_int [| 4 |] (fun ix -> 1012000 + ix.(0)) in
  differential ~name:"fig4"
    ~inputs:[ ("ssh.data", ssh); ("dates.data", dates) ]
    ~outputs:[ "eddyLabels.data" ] Eddy.Programs.fig4_conncomp

let test_fig1_slice () =
  differential ~name:"fig1_slice" ~inputs:[ ("ssh.data", cube3 3 4 6) ]
    ~outputs:[ "means.data" ] Eddy.Programs.fig1_with_slice_copy

let test_tiling_example () =
  differential ~name:"transform_tiling" ~inputs:[] ~outputs:[]
    (example "transform_tiling.mc")

(* The acceptance program, under every optimization-flag configuration:
   default, --no-fuse, --no-copy-elim, and auto-parallelized with 2 and 4
   real OpenMP threads whatever the core count, so a race in the native
   runtime's refcounts shows up as a live-count mismatch on any machine. *)
let test_eddy_flag_matrix () =
  let src = example "eddy_energy.mc" in
  List.iter
    (fun (fuse, copy_elim, auto_par, threads, tag) ->
      differential
        ~name:("eddy_energy/" ^ tag)
        ~fuse ~copy_elim ~auto_par ~threads ~inputs:[] ~outputs:[] src)
    [
      (true, true, false, 1, "default");
      (false, true, false, 1, "no-fuse");
      (true, false, false, 1, "no-copy-elim");
      (true, true, true, 2, "auto-par");
      (true, true, true, 4, "auto-par/4");
    ]

(* The copy-elim verdict's cases (see test_pipeline.ml): natively, too,
   a slice whose fixed index or base changes in its scope keeps its
   copy's values, and a slice over the loop index reads in place. *)
let test_inplace_slice_reads () =
  ignore (ensure_cc ());
  List.iter
    (fun (name, src, expected, _) ->
      match
        Driver.exec ~cache_dir:(Lazy.force suite_cache) full src
      with
      | Driver.Ok_ { Native.Exec.value = Native.Exec.RScal (S.I n); live; _ } ->
          Alcotest.(check int) (name ^ ": native result") expected n;
          Alcotest.(check int) (name ^ ": live allocations at exit") 0 live
      | Driver.Ok_ o ->
          Alcotest.failf "%s: unexpected value %a" name Native.Exec.pp_value
            o.Native.Exec.value
      | Driver.Failed ds ->
          Alcotest.failf "%s: native failed: %s" name (Driver.diags_to_string ds))
    Test_pipeline.slice_read_cases

(* [Driver.exec] without [~dir] runs in a temporary data directory and
   removes it afterwards: with the temp root pointed at a fresh directory,
   nothing is left behind. *)
let test_exec_leaves_no_temp_dir () =
  ignore (ensure_cc ());
  let cache_dir = Lazy.force suite_cache in
  let src = example "eddy_energy.mc" in
  Tmp.with_dir @@ fun tmp ->
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  let result =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      (fun () -> Driver.exec ~cache_dir full src)
  in
  (match result with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds));
  Alcotest.(check (array string)) "temp root left empty" [||] (Sys.readdir tmp)

(* --- shadowed matrix declarations ----------------------------------------- *)

(* A matrix redeclared in a nested block and left by [return] or [break]:
   each handle must be released exactly once, so both backends agree and
   nothing stays live. *)
let test_shadowed_matrix_release () =
  List.iter
    (fun (name, src) -> differential ~live:0 ~name ~inputs:[] ~outputs:[] src)
    [
      ( "shadow-return",
        {|int f(int r) {
            Matrix float <1> a = with ([0] <= [i] < [4]) genarray([4], 1.0);
            if (r == 0) {
              Matrix float <1> a = with ([0] <= [i] < [3]) genarray([3], 2.0);
              return 1;
            }
            return 2;
          }
          int main() { return f(0) + f(1); }|} );
      ( "shadow-break",
        {|int main() {
            int s = 0;
            Matrix float <1> a = with ([0] <= [i] < [4]) genarray([4], 1.0);
            while (s < 3) {
              Matrix float <1> a = with ([0] <= [i] < [2]) genarray([2], 3.0);
              if (s == 1) {
                Matrix float <1> a = with ([0] <= [i] < [3]) genarray([3], 2.0);
                break;
              }
              s = s + 1;
            }
            return s + dimSize(a, 0);
          }|} );
    ]

(* --- result-protocol shapes --------------------------------------------- *)

(* Every value shape the protocol can carry: float, bool, void, matrix,
   NULL and tuple results all round-trip into what the interpreter
   returns (including the returned matrix counting as live on both
   sides). *)
let test_result_shapes () =
  List.iter
    (fun (name, src) -> differential ~name ~inputs:[] ~outputs:[] src)
    [
      ("ret-float", "float main() { return 1.5 / 3.0; }");
      ("ret-bool", "bool main() { return 3 > 2; }");
      ("ret-void", "void main() { int x = 1; return; }");
      ( "ret-mat",
        {|
Matrix int <1> main() {
  Matrix int <1> v = init(Matrix int <1>, 5);
  for (int i = 0; i < 5; i++) { v[i] = i * i; }
  return v;
}
|} );
      ("ret-null", "Matrix int <1> main() { Matrix int <1> v; return v; }");
      ( "ret-tuple",
        {|
(int, float) pair() { return (7, 2.5); }
int main() {
  int a = 0;
  float b = 0.0;
  (a, b) = pair();
  return a;
}
|} );
    ]

(* Tuple-valued entry: the harness prints the struct field by field. *)
let test_tuple_entry () =
  differential ~name:"tuple-entry" ~inputs:[] ~outputs:[]
    "(int, float) main() { return (7, 2.5); }"

(* int and bool matrices through writeMatrix: the native MMAT1 container
   must be byte-compatible with the interpreter's reader. *)
let test_write_matrix_kinds () =
  differential ~name:"write-kinds" ~inputs:[]
    ~outputs:[ "ints.data"; "bools.data" ]
    {|
int main() {
  Matrix int <2> v = with ([0,0] <= [i,j] < [3,4]) genarray([3,4], i * 10 - j);
  Matrix bool <2> m = v >= 5;
  writeMatrix("ints.data", v);
  writeMatrix("bools.data", m);
  return dimSize(v, 0);
}
|}

(* --- randomized differential property ----------------------------------- *)

(* 20+ random program shapes (dims and coefficients baked into the
   source), each compiled at -O0 for speed and compared exactly. *)
let prop_random_shapes =
  QCheck.Test.make ~name:"random-shape programs match natively" ~count:20
    QCheck.(
      make
        Gen.(
          let* m = 1 -- 5 and* n = 1 -- 5 and* p = 1 -- 5 in
          let* a = 0 -- 9 and* b = 0 -- 9 in
          return (m, n, p, a, b)))
    (fun (m, n, p, a, b) ->
      let src =
        Printf.sprintf
          {|
float main() {
  Matrix float <3> g =
    with ([0,0,0] <= [i,j,k] < [%d,%d,%d])
    genarray([%d,%d,%d], (%d * i + %d * j + k) / 4.0);
  return with ([0,0,0] <= [i,j,k] < [%d,%d,%d]) fold (+, 0.0, g[i,j,k]);
}
|}
          m n p m n p a b m n p
      in
      ignore (ensure_cc ());
      let iv =
        match Driver.run full src [] with
        | Driver.Ok_ v -> v
        | Driver.Failed ds ->
            QCheck.Test.fail_reportf "interp failed: %s"
              (Driver.diags_to_string ds)
      in
      match
        Driver.exec ~cache_dir:(Lazy.force suite_cache) ~cflags:[ "-O0" ]
          full src
      with
      | Driver.Ok_ o -> value_eq iv o.Native.Exec.value
      | Driver.Failed ds ->
          QCheck.Test.fail_reportf "native failed: %s"
            (Driver.diags_to_string ds))

(* --- binary cache -------------------------------------------------------- *)

let exec_eddy ?cflags ?cache_dir () =
  let src = example "eddy_energy.mc" in
  match Driver.exec ?cflags ?cache_dir full src with
  | Driver.Ok_ o -> o
  | Driver.Failed ds -> Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds)

let test_cache_hit_on_rerun () =
  ignore (ensure_cc ());
  Tmp.with_dir @@ fun cache_dir ->
  Native.Cache.reset_counts ();
  let first = exec_eddy ~cache_dir () in
  Alcotest.(check bool) "first run compiles" false first.Native.Exec.from_cache;
  let second = exec_eddy ~cache_dir () in
  Alcotest.(check bool) "second run hits cache" true
    second.Native.Exec.from_cache;
  Alcotest.(check bool) "hit counted" true (Native.Cache.hit_count () >= 1);
  Alcotest.(check bool) "miss counted" true (Native.Cache.miss_count () >= 1);
  Alcotest.(check string) "same binary" first.Native.Exec.exe
    second.Native.Exec.exe

let test_cache_invalidation_on_flag_change () =
  ignore (ensure_cc ());
  Tmp.with_dir @@ fun cache_dir ->
  let first = exec_eddy ~cache_dir () in
  let changed = exec_eddy ~cache_dir ~cflags:[ "-DMM_SALT=1" ] () in
  Alcotest.(check bool) "changed flags recompile" false
    changed.Native.Exec.from_cache;
  Alcotest.(check bool) "different binary" true
    (first.Native.Exec.exe <> changed.Native.Exec.exe);
  let again = exec_eddy ~cache_dir ~cflags:[ "-DMM_SALT=1" ] () in
  Alcotest.(check bool) "same flags hit again" true
    again.Native.Exec.from_cache

let test_cache_gauge_exported () =
  ignore (ensure_cc ());
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Support.Telemetry.set_enabled false)
  @@ fun () ->
  Tmp.with_dir @@ fun cache_dir ->
  ignore (exec_eddy ~cache_dir ());
  ignore (exec_eddy ~cache_dir ());
  let gauge n =
    match List.assoc_opt n (Support.Telemetry.gauges ()) with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s not exported" n
  in
  Alcotest.(check bool) "cache.hit >= 1" true (gauge "cache.hit" >= 1.);
  Alcotest.(check bool) "cache.miss >= 1" true (gauge "cache.miss" >= 1.)

(* --- the probe-free cache hit --------------------------------------------- *)

(* A compiler wrapper for MMC_CC that appends each invocation to
   [dir]/cc.log and forwards to the real compiler; with [reject_openmp]
   it fails every [-fopenmp] compile, as a compiler without OpenMP
   would.  Each wrapper has its own path, so the in-process probe memo
   never answers for it. *)
let cc_wrapper ?(reject_openmp = false) dir =
  let real = Native.Toolchain.default_cc () in
  let log = Filename.concat dir "cc.log" in
  let wrapper = Filename.concat dir "cc.sh" in
  Out_channel.with_open_text wrapper (fun oc ->
      Printf.fprintf oc "#!/bin/sh\necho \"$*\" >> %s\n%sexec %s \"$@\"\n"
        (Filename.quote log)
        (if reject_openmp then
           "for a in \"$@\"; do [ \"$a\" = -fopenmp ] && exit 1; done\n"
         else "")
        real);
  Unix.chmod wrapper 0o755;
  let calls () =
    if Sys.file_exists log then
      In_channel.with_open_text log In_channel.input_lines |> List.length
    else 0
  in
  (wrapper, calls)

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

(* A warm `mmc exec` process finds its binary under the OpenMP toolchain
   and never runs the compiler; a cold one probes (two compiles) and
   builds (one).  Without OpenMP the warm run still has to probe. *)
let test_warm_exec_runs_no_compiler () =
  let tc = ensure_cc () in
  Tmp.with_dir @@ fun dir ->
  let wrapper, calls = cc_wrapper dir in
  let exec () =
    let out = Filename.concat dir "out.txt" in
    let cmd =
      Printf.sprintf "MMC_CC=%s %s exec --cache-dir %s %s > %s 2>&1"
        (Filename.quote wrapper) (Filename.quote mmc_exe)
        (Filename.quote (Filename.concat dir "cache"))
        (Filename.quote (Filename.concat "../examples" "eddy_energy.mc"))
        (Filename.quote out)
    in
    let code = Sys.command cmd in
    let text = In_channel.with_open_text out In_channel.input_all in
    Alcotest.(check int) ("mmc exec exits 0: " ^ text) 0 code;
    text
  in
  let cold = exec () in
  Alcotest.(check int) "cold exec: two probe compiles and one build" 3
    (calls ());
  let warm = exec () in
  Alcotest.(check int)
    (if tc.Native.Toolchain.openmp then "warm exec runs no compiler"
     else "warm exec without OpenMP probes")
    (if tc.Native.Toolchain.openmp then 3 else 5)
    (calls ());
  Alcotest.(check string) "warm output equals cold" cold warm

(* A compiler that rejects -fopenmp: the warm run misses the OpenMP slot,
   probes, hits the sequential slot the cold run filled, and still
   matches the interpreter bit for bit. *)
let test_no_openmp_warm_hit () =
  ignore (ensure_cc ());
  Tmp.with_dir @@ fun dir ->
  let wrapper, calls = cc_wrapper ~reject_openmp:true dir in
  let cache_dir = Filename.concat dir "cache" in
  let src = example "eddy_energy.mc" in
  Runtime.Rc.reset ();
  let iv =
    match Driver.run full src [] with
    | Driver.Ok_ v -> v
    | Driver.Failed ds ->
        Alcotest.failf "interp failed: %s" (Driver.diags_to_string ds)
  in
  let ilive = Runtime.Rc.live_count () in
  let saved = Option.value (Sys.getenv_opt "MMC_CC") ~default:"" in
  Unix.putenv "MMC_CC" wrapper;
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MMC_CC" saved;
      Support.Telemetry.set_enabled false)
  @@ fun () ->
  let exec () =
    match Driver.exec ~cache_dir ~threads:2 full src with
    | Driver.Ok_ o -> o
    | Driver.Failed ds ->
        Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds)
  in
  let cold = exec () in
  Alcotest.(check bool) "cold run compiles" false cold.Native.Exec.from_cache;
  Alcotest.(check int) "cold: probe pair plus build" 3 (calls ());
  let warm = exec () in
  Alcotest.(check bool) "warm run hits the sequential slot" true
    warm.Native.Exec.from_cache;
  Alcotest.(check string) "same binary" cold.Native.Exec.exe
    warm.Native.Exec.exe;
  Alcotest.(check (option (float 0.))) "native.openmp" (Some 0.)
    (List.assoc_opt "native.openmp" (Support.Telemetry.gauges ()));
  Alcotest.(check bool) "value matches the interpreter" true
    (value_eq iv warm.Native.Exec.value);
  Alcotest.(check int) "live count matches the interpreter" ilive
    warm.Native.Exec.live

(* --- toolchain edge cases ------------------------------------------------ *)

let test_missing_compiler_graceful () =
  (* Needs no real compiler: a nonexistent one must produce a structured
     diagnostic, not an exception or a crash. *)
  Tmp.with_dir @@ fun cache_dir ->
  match
    Driver.exec ~cc:"mmc-definitely-not-a-compiler" ~cache_dir full
      "int main() { return 3; }"
  with
  | Driver.Ok_ _ -> Alcotest.fail "expected a missing-compiler failure"
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic names the compiler (got: %s)" text)
        true
        (is_infix ~affix:"no working C compiler" text)

let test_runtime_failure_taxonomy () =
  ignore (ensure_cc ());
  (* readMatrix on a missing file: the binary exits 70 with an mm_runtime
     message, which must come back as a native-run diagnostic naming the
     file — mirroring the interpreter's readMatrix diagnostic. *)
  match
    Driver.exec ~cache_dir:(Lazy.force suite_cache) full
      Eddy.Programs.fig1_temporal_mean
  with
  | Driver.Ok_ _ -> Alcotest.fail "expected a runtime failure"
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic names readMatrix (got: %s)" text)
        true
        (is_infix ~affix:"readMatrix" text)

(* --- keep-c / standalone compile ----------------------------------------- *)

let test_keep_c_standalone_recompile () =
  let tc = ensure_cc () in
  Tmp.with_dir @@ fun keep_dir ->
  let keep_c = Filename.concat keep_dir "prog.c" in
  Tmp.with_dir @@ fun data_dir ->
  let o =
    match
      Driver.exec ~dir:data_dir ~keep_c ~cache_dir:(Lazy.force suite_cache)
        full (example "eddy_energy.mc")
    with
    | Driver.Ok_ o -> o
    | Driver.Failed ds ->
        Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds)
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " kept") true
        (Sys.file_exists (Filename.concat keep_dir f)))
    [ "prog.c"; "mm_runtime.h"; "mm_runtime.c" ];
  (* The kept sources must recompile on their own — no cache, no driver —
     and produce the same result protocol. *)
  let exe = Filename.concat keep_dir "prog.exe" in
  (match
     Native.Toolchain.compile tc
       ~c_files:[ keep_c; Filename.concat keep_dir "mm_runtime.c" ]
       ~out:exe
   with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "standalone recompile failed: %s"
        (Native.Toolchain.describe_error e));
  let out = Filename.concat keep_dir "stdout.txt" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s > %s" (Filename.quote data_dir)
         (Filename.quote exe) (Filename.quote out))
  in
  Alcotest.(check int) "standalone binary exits 0" 0 code;
  let text = In_channel.with_open_bin out In_channel.input_all in
  match Native.Exec.parse_output text with
  | Ok (v, live) ->
      Alcotest.(check bool) "standalone result identical" true
        (v = o.Native.Exec.value);
      Alcotest.(check int) "standalone live identical" o.Native.Exec.live live
  | Error e ->
      Alcotest.failf "standalone output unparseable: %s"
        (Native.Exec.describe_error e)

(* --- compile-check golden: warning-clean emission ------------------------ *)

let test_corpus_compiles_werror () =
  let tc = ensure_cc () in
  Tmp.with_dir @@ fun build ->
  let werror = { tc with Native.Toolchain.cflags = [ "-Werror" ] } in
  List.iteri
    (fun i (name, src) ->
      match Driver.compile_to_c ~exec_harness:true full src with
      | Driver.Failed ds ->
          Alcotest.failf "%s: emit failed: %s" name (Driver.diags_to_string ds)
      | Driver.Ok_ c_text -> (
          let c_file = Filename.concat build (Printf.sprintf "p%d.c" i) in
          Out_channel.with_open_text c_file (fun oc ->
              Out_channel.output_string oc c_text);
          Out_channel.with_open_text (Filename.concat build "mm_runtime.h")
            (fun oc -> Out_channel.output_string oc Native.Runtime_c.header);
          Out_channel.with_open_text (Filename.concat build "mm_runtime.c")
            (fun oc -> Out_channel.output_string oc Native.Runtime_c.impl);
          match
            Native.Toolchain.compile werror
              ~c_files:[ c_file; Filename.concat build "mm_runtime.c" ]
              ~out:(Filename.concat build (Printf.sprintf "p%d.exe" i))
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s not warning-clean under -Werror: %s" name
                (Native.Toolchain.describe_error e)))
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig8", Eddy.Programs.fig8_scoring);
      ("fig9", Eddy.Programs.fig9_transformed);
      ("fig1_slice", Eddy.Programs.fig1_with_slice_copy);
      ("eddy_energy", example "eddy_energy.mc");
      ("transform_tiling", example "transform_tiling.mc");
    ]

let suite =
  [
    Alcotest.test_case "fig1 interp vs native" `Quick test_fig1;
    Alcotest.test_case "fig9 (SSE) interp vs native" `Quick test_fig9;
    Alcotest.test_case "fig8 (tuples) interp vs native" `Quick test_fig8;
    Alcotest.test_case "fig4 (conncomp) interp vs native" `Quick test_fig4;
    Alcotest.test_case "fig1 slice-copy interp vs native" `Quick
      test_fig1_slice;
    Alcotest.test_case "transform_tiling interp vs native" `Quick
      test_tiling_example;
    Alcotest.test_case "eddy_energy under all flag configs" `Quick
      test_eddy_flag_matrix;
    Alcotest.test_case "in-place slice reads natively" `Quick
      test_inplace_slice_reads;
    Alcotest.test_case "shadowed matrix: return and break release once"
      `Quick test_shadowed_matrix_release;
    Alcotest.test_case "result protocol: every value shape" `Quick
      test_result_shapes;
    Alcotest.test_case "tuple-valued entry function" `Quick test_tuple_entry;
    Alcotest.test_case "writeMatrix int/bool container parity" `Quick
      test_write_matrix_kinds;
    QCheck_alcotest.to_alcotest prop_random_shapes;
    Alcotest.test_case "cache: hit on rerun" `Quick test_cache_hit_on_rerun;
    Alcotest.test_case "cache: invalidation on flag change" `Quick
      test_cache_invalidation_on_flag_change;
    Alcotest.test_case "cache: hit/miss gauges exported" `Quick
      test_cache_gauge_exported;
    Alcotest.test_case "cache hit: warm exec runs no compiler" `Quick
      test_warm_exec_runs_no_compiler;
    Alcotest.test_case "cache hit: no OpenMP, sequential slot" `Quick
      test_no_openmp_warm_hit;
    Alcotest.test_case "missing compiler: graceful diagnostic" `Quick
      test_missing_compiler_graceful;
    Alcotest.test_case "runtime failure maps to diagnostic" `Quick
      test_runtime_failure_taxonomy;
    Alcotest.test_case "--keep-c recompiles standalone" `Quick
      test_keep_c_standalone_recompile;
    Alcotest.test_case "corpus emits -Werror-clean C" `Quick
      test_corpus_compiles_werror;
    Alcotest.test_case "exec without a data dir leaves no temp dir" `Quick
      test_exec_leaves_no_temp_dir;
  ]
