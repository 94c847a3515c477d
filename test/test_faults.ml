(* Chaos/stress harness for the fault-tolerant execution layer: the
   failpoint registry itself, pool crash containment and degraded mode,
   cooperative resource guards, structured readMatrix diagnostics, RC
   ledger drain after aborted runs, and a fault matrix driving every
   failpoint through real paper programs in both sequential and parallel
   modes.

   Every case runs under a hard SIGALRM deadline so a containment bug
   that hangs the pool fails the test instead of wedging the suite. *)

module Nd = Runtime.Ndarray
module Pool = Runtime.Pool
module Fp = Support.Failpoint
module Limits = Runtime.Limits
module Rc = Runtime.Rc
module T = Support.Telemetry

let nd = Alcotest.testable Nd.pp Nd.equal

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

exception Deadline of string

(* Hard per-case timeout: cooperative containment must never hang, and if
   it does we want a named failure, not a stuck CI job.  OCaml delivers
   signals at safe points, which every loop boundary is. *)
let with_deadline ?(secs = 120) label f =
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> raise (Deadline label)))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

(* Failpoints and limits are process-global; leave no residue for the
   other suites regardless of how a case exits. *)
let hygiene label f =
  with_deadline label @@ fun () ->
  Fp.reset ();
  Limits.clear ();
  Rc.reset ();
  Fun.protect
    ~finally:(fun () ->
      Fp.reset ();
      Limits.clear ())
    f

let with_telemetry f =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

let quiet_degrade f =
  let saved = !Pool.on_degrade in
  Pool.on_degrade := ignore;
  Fun.protect ~finally:(fun () -> Pool.on_degrade := saved) f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_msg label needle = function
  | [] -> Alcotest.failf "%s: expected a diagnostic" label
  | (d : Support.Diag.t) :: _ ->
      if not (contains d.Support.Diag.message needle) then
        Alcotest.failf "%s: diagnostic %S does not mention %S" label
          d.Support.Diag.message needle

(* --- failpoint registry ------------------------------------------------------ *)

let test_failpoint_nth () =
  hygiene "failpoint nth" @@ fun () ->
  let fp = Fp.register "test.nth" in
  Fp.arm_spec "test.nth@3";
  let fired_at = ref [] in
  for i = 1 to 10 do
    try Fp.hit fp with Fp.Injected "test.nth" -> fired_at := i :: !fired_at
  done;
  Alcotest.(check (list int)) "fires exactly once, on the 3rd hit" [ 3 ]
    (List.rev !fired_at);
  Alcotest.(check int) "hits counted" 10 (Fp.hits "test.nth");
  Alcotest.(check int) "fired counted" 1 (Fp.fired "test.nth");
  Fp.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Fp.hits "test.nth");
  Fp.hit fp;
  Alcotest.(check int) "reset disarms" 0 (Fp.fired "test.nth")

let test_failpoint_bad_specs () =
  hygiene "failpoint bad specs" @@ fun () ->
  List.iter
    (fun s ->
      match Fp.arm_spec s with
      | () -> Alcotest.failf "spec %S should have been rejected" s
      | exception Fp.Bad_spec _ -> ())
    [ "noat"; "x@"; "@3"; "x@0"; "x@-2"; "x@1.5"; "x@0.5:zz"; "x@abc" ];
  (* blank clauses are ignored, not errors *)
  Fp.arm_spec "";
  Fp.arm_spec " , "

let test_failpoint_prob_deterministic () =
  hygiene "failpoint prob" @@ fun () ->
  let pattern spec =
    Fp.reset ();
    let fp = Fp.register "test.prob" in
    Fp.arm_spec spec;
    List.init 200 (fun _ ->
        match Fp.hit fp with
        | () -> false
        | exception Fp.Injected _ -> true)
  in
  let a = pattern "test.prob@0.3:7" in
  Alcotest.(check (list bool)) "same seed, same fire pattern" a
    (pattern "test.prob@0.3:7");
  let fires = List.length (List.filter Fun.id a) in
  if fires < 20 || fires > 180 then
    Alcotest.failf "p=0.3 over 200 hits fired %d times" fires;
  Alcotest.(check bool) "different seed, different pattern" true
    (a <> pattern "test.prob@0.3:8")

let test_failpoint_env () =
  hygiene "failpoint env" @@ fun () ->
  Unix.putenv "MMC_FAILPOINTS" "test.env@1";
  Fun.protect ~finally:(fun () -> Unix.putenv "MMC_FAILPOINTS" "") @@ fun () ->
  Fp.arm_from_env ();
  let fp = Fp.register "test.env" in
  (match Fp.hit fp with
  | () -> Alcotest.fail "MMC_FAILPOINTS arming did not fire"
  | exception Fp.Injected "test.env" -> ());
  Unix.putenv "MMC_FAILPOINTS" "broken";
  match Fp.arm_from_env () with
  | () -> Alcotest.fail "malformed MMC_FAILPOINTS accepted"
  | exception Fp.Bad_spec _ -> ()

(* --- pool crash containment --------------------------------------------------- *)

exception Boom of int

let test_pool_collects_all_exns () =
  hygiene "pool collects exns" @@ fun () ->
  with_telemetry @@ fun () ->
  Pool.with_pool 4 @@ fun pool ->
  (match Pool.run pool (fun t _n -> raise (Boom t)) with
  | () -> Alcotest.fail "expected a worker exception at the barrier"
  | exception Boom _ -> ());
  Alcotest.(check (option int)) "other workers' exceptions suppressed+counted"
    (Some 3)
    (List.assoc_opt "pool.suppressed_exns" (T.counters ()));
  (* the pool must accept new work after a failed region *)
  let cell = Atomic.make 0 in
  Pool.parallel_for pool 0 1_000 (fun _ -> Atomic.incr cell);
  Alcotest.(check int) "pool reusable after exceptions" 1_000 (Atomic.get cell)

let test_chunk_fault_recovered () =
  hygiene "chunk fault recovered" @@ fun () ->
  Pool.with_pool 4 @@ fun pool ->
  Fp.arm_spec "pool.worker_body@1";
  let hits = Array.make 10_000 0 in
  Pool.parallel_for pool 0 10_000 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "every index ran exactly once despite the fault" true
    (Array.for_all (fun c -> c = 1) hits);
  Alcotest.(check int) "one recovered fault" 1 (Pool.fault_count pool);
  Alcotest.(check bool) "default budget absorbs it" false
    (Pool.is_degraded pool)

let test_pool_degrades_after_budget () =
  hygiene "pool degrades" @@ fun () ->
  with_telemetry @@ fun () ->
  quiet_degrade @@ fun () ->
  Pool.with_pool 4 @@ fun pool ->
  Pool.set_fault_budget pool 0;
  Fp.arm_spec "pool.worker_body@1";
  let cell = Atomic.make 0 in
  Pool.parallel_for pool 0 1_000 (fun _ -> Atomic.incr cell);
  Alcotest.(check int) "region completes despite the fault" 1_000
    (Atomic.get cell);
  Alcotest.(check bool) "budget 0 degrades on the first fault" true
    (Pool.is_degraded pool);
  (match List.assoc_opt "pool.degraded" (T.counters ()) with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "pool.degraded counter: %s"
        (match v with None -> "absent" | Some n -> string_of_int n));
  (* degraded pool keeps working, inline *)
  Fp.reset ();
  let cell2 = Atomic.make 0 in
  Pool.parallel_for pool 0 500 (fun _ -> Atomic.incr cell2);
  Alcotest.(check int) "degraded pool runs regions inline" 500
    (Atomic.get cell2);
  Pool.reset_faults pool;
  Alcotest.(check bool) "reset_faults re-enables dispatch" false
    (Pool.is_degraded pool)

(* --- resource guards through the driver --------------------------------------- *)

let run_with_limits ?max_steps ?max_bytes ?timeout_s src =
  Rc.reset ();
  Limits.configure ?max_steps ?max_bytes ?timeout_s ();
  Fun.protect ~finally:Limits.clear @@ fun () -> Driver.run full src []

let located_failure label = function
  | Driver.Ok_ _ -> Alcotest.failf "%s: expected a resource-limit failure" label
  | Driver.Failed ds -> (
      match ds with
      | [] -> Alcotest.failf "%s: empty diagnostic list" label
      | d :: _ ->
          if d.Support.Diag.span = Support.Pos.dummy_span then
            Alcotest.failf "%s: diagnostic lost the loop provenance span" label;
          ds)

let spin_src =
  {|
int main() {
  int total = 0;
  for (int i = 0; i < 100000000; i++) { total = total + 1; }
  return total;
}
|}

(* A large matrix held live across a long loop, so the throttled
   live-byte check (every 64 ticks) observes it mid-run. *)
let alloc_loop_src =
  {|
int main() {
  Matrix float <2> big = init(Matrix float <2>, 200, 200);
  float acc = 0f;
  for (int i = 0; i < 1000; i++) {
    big[0, 0] = (float)i;
    acc = acc + big[0, 0];
  }
  return (int)acc;
}
|}

let test_limit_max_steps () =
  hygiene "max steps" @@ fun () ->
  let ds = located_failure "max-steps" (run_with_limits ~max_steps:50 spin_src) in
  check_msg "max-steps" "--max-steps" ds;
  Alcotest.(check int) "aborted run leaves no live allocations" 0
    (Rc.live_count ())

let test_limit_timeout () =
  hygiene "timeout" @@ fun () ->
  let ds =
    located_failure "timeout" (run_with_limits ~timeout_s:0.05 spin_src)
  in
  check_msg "timeout" "--timeout" ds

let test_limit_max_bytes () =
  hygiene "max bytes" @@ fun () ->
  let ds =
    located_failure "max-bytes"
      (run_with_limits ~max_bytes:20_000 alloc_loop_src)
  in
  check_msg "max-bytes" "--max-bytes" ds;
  Alcotest.(check int) "ledger drained after abort" 0 (Rc.live_bytes ())

let test_limits_disabled_by_default () =
  hygiene "limits off" @@ fun () ->
  Limits.clear ();
  match Driver.run full alloc_loop_src [] with
  | Driver.Ok_ _ -> Alcotest.(check bool) "unlimited run completes" true true
  | Driver.Failed ds ->
      Alcotest.failf "unexpected failure: %s" (Driver.diags_to_string ds)

(* Runtime failures that are not resource limits also carry provenance:
   an out-of-bounds access inside a source loop renders at that loop. *)
let test_runtime_error_has_span () =
  hygiene "runtime error span" @@ fun () ->
  let src =
    {|
int main() {
  Matrix float <1> v = init(Matrix float <1>, 4);
  float x = 0f;
  for (int i = 0; i < 10; i++) { x = x + v[i]; }
  return (int)x;
}
|}
  in
  Rc.reset ();
  let ds =
    located_failure "oob" (Driver.run full src [])
  in
  check_msg "oob" "out of bounds" ds;
  Alcotest.(check int) "drained" 0 (Rc.live_count ())

(* --- readMatrix structured diagnostics ----------------------------------------- *)

let expect_io_error label needles f =
  match f () with
  | (_ : Nd.t) -> Alcotest.failf "%s: expected Io_error" label
  | exception Nd.Io_error m ->
      List.iter
        (fun needle ->
          if not (contains m needle) then
            Alcotest.failf "%s: %S does not mention %S" label m needle)
        needles

let test_read_matrix_missing () =
  hygiene "readMatrix missing" @@ fun () ->
  expect_io_error "missing" [ "readMatrix"; "cannot open" ] (fun () ->
      Nd.read_file "/nonexistent/mmc-chaos.data")

let test_read_matrix_truncated () =
  hygiene "readMatrix truncated" @@ fun () ->
  Tmp.with_dir @@ fun dir ->
  let path = Filename.concat dir "trunc.data" in
  Nd.write_file path (Nd.init_float [| 6; 7 |] (fun ix -> float_of_int ix.(1)));
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole - 25)));
  expect_io_error "truncated"
    [ "readMatrix"; "truncated"; "offset"; "[6x7]" ]
    (fun () -> Nd.read_file path)

let test_read_matrix_garbage () =
  hygiene "readMatrix garbage" @@ fun () ->
  Tmp.with_dir @@ fun dir ->
  let bad_magic = Filename.concat dir "junk.data" in
  Out_channel.with_open_bin bad_magic (fun oc ->
      Out_channel.output_string oc "JUNKJUNKJUNKJUNK");
  expect_io_error "bad magic" [ "bad magic" ] (fun () ->
      Nd.read_file bad_magic);
  (* valid header, garbage elements *)
  let bad_elems = Filename.concat dir "elems.data" in
  let good = Filename.concat dir "good.data" in
  Nd.write_file good (Nd.init_int [| 5 |] (fun ix -> ix.(0)));
  let whole = In_channel.with_open_bin good In_channel.input_all in
  Out_channel.with_open_bin bad_elems (fun oc ->
      (* keep the header (magic + kind + rank + one extent), replace the
         element lines with unparsable text *)
      Out_channel.output_string oc (String.sub whole 0 15);
      Out_channel.output_string oc "not-a-number\nxx\n");
  expect_io_error "garbage elements"
    [ "element"; "offset" ]
    (fun () -> Nd.read_file bad_elems);
  (* implausible header: rank decoded from binary garbage *)
  let bad_rank = Filename.concat dir "rank.data" in
  Out_channel.with_open_bin bad_rank (fun oc ->
      Out_channel.output_string oc "MMAT1\nf\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF");
  expect_io_error "implausible rank" [ "rank" ] (fun () ->
      Nd.read_file bad_rank)

let test_read_matrix_in_program () =
  hygiene "readMatrix in program" @@ fun () ->
  Tmp.with_dir @@ fun dir ->
  (* the program's "bad.data" resolves to <dir>/bad.data; plant a
     truncated file there *)
  let path = Filename.concat dir "bad.data" in
  Nd.write_file path (Nd.init_float [| 2; 3; 4 |] (fun _ -> 1.0));
  let whole = In_channel.with_open_bin path In_channel.input_all in
  (* drop more than one full element line: a partially truncated line can
     still parse as a shorter integer, a fully missing one cannot *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole - 30)));
  let src =
    {|
int main() {
  Matrix float <3> m = readMatrix("bad.data");
  return dimSize(m, 0);
}
|}
  in
  Rc.reset ();
  match Driver.run ~dir full src [] with
  | Driver.Ok_ _ -> Alcotest.fail "truncated input should fail the run"
  | Driver.Failed ds ->
      check_msg "program readMatrix" "readMatrix" ds;
      Alcotest.(check int) "no allocations leaked by the abort" 0
        (Rc.live_count ())

(* --- RC ledger drain: leak property over random programs ----------------------- *)

let test_leak_drain_property () =
  hygiene "leak drain property" @@ fun () ->
  let st = Random.State.make [| 0xFA017; 3 |] in
  for trial = 1 to 15 do
    let n = 2 + Random.State.int st 6 in
    let d = 4 + Random.State.int st 20 in
    let src =
      Printf.sprintf
        {|
int main() {
  float acc = 0f;
  for (int i = 0; i < %d; i++) {
    Matrix float <2> t = init(Matrix float <2>, %d, %d);
    t[0, 0] = (float)i;
    acc = acc + t[0, 0];
  }
  return (int)acc;
}
|}
        n d d
    in
    (* the loop makes exactly [n] allocations; fire the alloc failpoint
       somewhere inside that range so every trial aborts mid-run *)
    let k = 1 + Random.State.int st n in
    Rc.reset ();
    Fp.reset ();
    Fp.arm_spec (Printf.sprintf "ndarray.alloc@%d" k);
    (match Driver.run full src [] with
    | Driver.Ok_ _ ->
        Alcotest.failf "trial %d: alloc fault at hit %d did not abort" trial k
    | Driver.Failed ds ->
        check_msg "alloc fault" "ndarray.alloc" ds);
    if Fp.fired "ndarray.alloc" < 1 then
      Alcotest.failf "trial %d: failpoint never fired" trial;
    Alcotest.(check int)
      (Printf.sprintf "trial %d: live count drained to baseline" trial)
      0 (Rc.live_count ());
    Alcotest.(check int)
      (Printf.sprintf "trial %d: live bytes drained to baseline" trial)
      0 (Rc.live_bytes ())
  done

(* --- the fault matrix ----------------------------------------------------------- *)

(* Every failpoint x {sequential, pooled} x {fire on the 1st hit, fire on
   a later hit}, driven through a real paper program (Fig 1 temporal
   mean).  The invariant is not "it fails" — a failpoint the mode never
   reaches simply does not fire, and a worker fault is recovered — it is:
   no hang (SIGALRM deadline), and either a clean structured diagnostic
   with the ledger drained, or the bit-exact oracle output. *)
let test_fault_matrix () =
  hygiene "fault matrix" @@ fun () ->
  quiet_degrade @@ fun () ->
  let cube =
    Nd.init_float [| 4; 5; 30 |] (fun ix ->
        float_of_int ((ix.(0) * 7) + (ix.(1) * 3) + ix.(2)) /. 11.0)
  in
  let src = Eddy.Programs.fig1_temporal_mean in
  let run_case ?pool () =
    Tmp.with_dir @@ fun dir ->
    Interp.Eval.provide_input ~dir "ssh.data" cube;
    Rc.reset ();
    let outcome = Driver.run ~dir ?pool ~config:(Driver.explain_config full) full src [] in
    (* disarm before touching files: fetch_output goes through the same
       read path as the io.read_matrix failpoint *)
    Fp.reset ();
    match outcome with
    | Driver.Ok_ _ -> Ok (Interp.Eval.fetch_output ~dir "means.data")
    | Driver.Failed ds -> Error ds
  in
  let oracle =
    match run_case () with
    | Ok m -> m
    | Error ds -> Alcotest.failf "clean run failed: %s" (Driver.diags_to_string ds)
  in
  Pool.with_pool 4 @@ fun pool ->
  List.iter
    (fun fp_name ->
      List.iter
        (fun parallel ->
          List.iter
            (fun k ->
              let label =
                Printf.sprintf "%s@%d %s" fp_name k
                  (if parallel then "par" else "seq")
              in
              Fp.reset ();
              Pool.reset_faults pool;
              Fp.arm_spec (Printf.sprintf "%s@%d" fp_name k);
              let r = run_case ?pool:(if parallel then Some pool else None) () in
              (match r with
              | Ok m -> Alcotest.check nd (label ^ ": output is the oracle") oracle m
              | Error [] -> Alcotest.failf "%s: failed without diagnostics" label
              | Error ((d : Support.Diag.t) :: _) ->
                  if d.Support.Diag.severity <> Support.Diag.Error then
                    Alcotest.failf "%s: non-error diagnostic" label);
              Alcotest.(check int)
                (label ^ ": rc ledger back to baseline")
                0 (Rc.live_count ()))
            [ 1; 5 ])
        [ false; true ])
    [ "ndarray.alloc"; "io.read_matrix"; "pool.dispatch"; "pool.worker_body" ]

(* --- the acceptance scenario ----------------------------------------------------- *)

(* A worker fault mid-parallel_for on the eddy detection program, with a
   zero fault budget: the pool must degrade to sequential fallback, the
   program must still complete, the output must be bit-identical to the
   pool-disabled oracle, and the degradation must be visible in
   telemetry. *)
let test_eddy_degraded_acceptance () =
  hygiene "eddy degraded acceptance" @@ fun () ->
  with_telemetry @@ fun () ->
  quiet_degrade @@ fun () ->
  let cube, dates =
    let c, _ =
      Eddy.Ssh_gen.generate ~lat:10 ~lon:12 ~time:3 ~n_eddies:2 ~seed:11 ()
    in
    (c, Nd.init_int [| 3 |] (fun ix -> 1012000 + ix.(0)))
  in
  let src = Eddy.Programs.fig4_conncomp in
  let run_case ?pool () =
    Tmp.with_dir @@ fun dir ->
    Interp.Eval.provide_input ~dir "ssh.data" cube;
    Interp.Eval.provide_input ~dir "dates.data" dates;
    Rc.reset ();
    match Driver.run ~dir ?pool ~config:(Driver.explain_config full) full src [] with
    | Driver.Ok_ _ ->
        Fp.reset ();
        Interp.Eval.fetch_output ~dir "eddyLabels.data"
    | Driver.Failed ds ->
        Alcotest.failf "run failed: %s" (Driver.diags_to_string ds)
  in
  let oracle = run_case () in
  Pool.with_pool 4 @@ fun pool ->
  Pool.set_fault_budget pool 0;
  Fp.arm_spec "pool.worker_body@1";
  let got = run_case ~pool () in
  Alcotest.check nd "degraded output bit-identical to sequential oracle"
    oracle got;
  Alcotest.(check bool) "pool degraded" true (Pool.is_degraded pool);
  match List.assoc_opt "pool.degraded" (T.counters ()) with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "pool.degraded counter: %s"
        (match v with None -> "absent" | Some n -> string_of_int n)

let suite =
  [
    Alcotest.test_case "failpoint: nth-hit one-shot firing" `Quick
      test_failpoint_nth;
    Alcotest.test_case "failpoint: malformed specs rejected" `Quick
      test_failpoint_bad_specs;
    Alcotest.test_case "failpoint: probabilistic firing is seeded" `Quick
      test_failpoint_prob_deterministic;
    Alcotest.test_case "failpoint: MMC_FAILPOINTS arming" `Quick
      test_failpoint_env;
    Alcotest.test_case "pool: collects all worker exceptions" `Quick
      test_pool_collects_all_exns;
    Alcotest.test_case "pool: chunk fault retried, exact coverage" `Quick
      test_chunk_fault_recovered;
    Alcotest.test_case "pool: fault budget degrades to sequential" `Quick
      test_pool_degrades_after_budget;
    Alcotest.test_case "limits: --max-steps aborts with provenance" `Quick
      test_limit_max_steps;
    Alcotest.test_case "limits: --timeout aborts with provenance" `Quick
      test_limit_timeout;
    Alcotest.test_case "limits: --max-bytes aborts and drains" `Quick
      test_limit_max_bytes;
    Alcotest.test_case "limits: disabled limits cost nothing" `Quick
      test_limits_disabled_by_default;
    Alcotest.test_case "runtime errors carry loop provenance" `Quick
      test_runtime_error_has_span;
    Alcotest.test_case "readMatrix: missing file" `Quick
      test_read_matrix_missing;
    Alcotest.test_case "readMatrix: truncated file" `Quick
      test_read_matrix_truncated;
    Alcotest.test_case "readMatrix: garbage content" `Quick
      test_read_matrix_garbage;
    Alcotest.test_case "readMatrix: structured diagnostic in a program" `Quick
      test_read_matrix_in_program;
    Alcotest.test_case "rc ledger drains after random aborts" `Quick
      test_leak_drain_property;
    Alcotest.test_case "fault matrix: failpoints x modes x timing" `Quick
      test_fault_matrix;
    Alcotest.test_case "acceptance: eddy program degrades bit-identically"
      `Quick test_eddy_degraded_acceptance;
  ]
