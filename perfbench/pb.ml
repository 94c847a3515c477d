(* pb — helper binary of the mmc benchmark (see README.md).

   run.py drives the built mmc CLI for the end-to-end numbers and calls
   this binary for the work that must not go through the CLI under test:

     pb gen-dev DIR                         corpus inputs at test sizes
     pb gen-grid DIR SEED LAT LON P ROWS    seeded paper-grid cubes
     pb ref < JOBS                          interpreter references
     pb trace OP THREADS SRC DATA CACHE     one op with per-layer spans

   Every subcommand prints machine-readable lines on stdout and exits
   non-zero on any failure. *)

module Nd = Runtime.Ndarray

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* --- inputs ------------------------------------------------------------- *)

(* Exactly the inputs the native differential suite feeds these corpus
   programs, so every dev-loop op runs at its test size. *)
let cube3 m n p =
  Nd.init_float [| m; n; p |] (fun ix ->
      float_of_int ((100 * ix.(0)) + (10 * ix.(1)))
      +. (0.5 *. float_of_int ix.(2)))

(* The Fig 7 trough signature (rise, fall, rise, fall over 40 steps),
   sampled at [p] evenly spaced steps.  Every sample of length >= 3 has
   a rise followed by a fall, so fig8's [scoreTS] finds a trough and
   never indexes past the end of a series. *)
let trough k =
  let fk = float_of_int k in
  if k < 10 then 1.0 +. (0.01 *. fk)
  else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
  else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
  else 1.1 -. (0.005 *. (fk -. 30.))

let gen_dev dir =
  ensure_dir dir;
  let prog name inputs =
    let d = Filename.concat dir name in
    ensure_dir d;
    List.iter (fun (f, m) -> Interp.Eval.provide_input ~dir:d f m) inputs
  in
  prog "fig1_temporal_mean" [ ("ssh.data", cube3 3 5 7) ];
  prog "fig1_with_slice_copy" [ ("ssh.data", cube3 3 4 6) ];
  List.iter
    (fun n -> prog n [ ("ssh.data", cube3 4 12 6) ])
    [ "fig9_interchange"; "fig9_tile"; "fig9_transformed" ];
  prog "fig8_scoring"
    [ ("ssh.data", Nd.init_float [| 2; 3; 40 |] (fun ix -> trough ix.(2))) ];
  let ssh, _ =
    Eddy.Ssh_gen.generate ~lat:12 ~lon:14 ~time:4 ~n_eddies:2 ~seed:7 ()
  in
  prog "fig4_conncomp"
    [
      ("ssh.data", ssh);
      ("dates.data", Nd.init_int [| 4 |] (fun ix -> 1012000 + ix.(0)));
    ]

(* Rows [rows] of a lat × lon × p cube, as a cube of their own: the
   columns of fig1 and fig8 are independent, so the interpreter run on
   the sample is the reference for those rows of the full output. *)
let sample_rows cube rows =
  let sh = Nd.shape cube in
  let rows = Array.of_list rows in
  Nd.init_float [| Array.length rows; sh.(1); sh.(2) |] (fun ix ->
      Runtime.Scalar.to_float (Nd.get cube [| rows.(ix.(0)); ix.(1); ix.(2) |]))

(* fig8's cube: each water column is the trough signature under its own
   strictly increasing map b + a*s + c*s^3 (s > 0), which keeps every
   rise and fall, so every series has a trough. *)
let trough_cube ~seed ~lat ~lon ~p =
  let st = Random.State.make [| seed; 8 |] in
  let coef =
    Array.init (lat * lon) (fun _ ->
        let a = 0.5 +. Random.State.float st 1.5 in
        let b = Random.State.float st 2. -. 1. in
        let c = Random.State.float st 0.5 in
        (a, b, c))
  in
  let sig_ = Array.init p (fun k -> trough (k * 40 / p)) in
  Nd.init_float [| lat; lon; p |] (fun ix ->
      let a, b, c = coef.((ix.(0) * lon) + ix.(1)) in
      let s = sig_.(ix.(2)) in
      b +. (a *. s) +. (c *. s *. s *. s))

let gen_grid dir ~seed ~lat ~lon ~p ~rows =
  if p < 3 then failwith "gen-grid: the time axis needs at least 3 steps";
  List.iter
    (fun r -> if r < 0 || r >= lat then failwith "gen-grid: row out of range")
    rows;
  ensure_dir dir;
  let write_cube name cube =
    let d = Filename.concat dir name and ds = Filename.concat dir (name ^ ".sample") in
    ensure_dir d;
    ensure_dir ds;
    Interp.Eval.provide_input ~dir:d "ssh.data" cube;
    Interp.Eval.provide_input ~dir:ds "ssh.data" (sample_rows cube rows)
  in
  let ssh, _ =
    Eddy.Ssh_gen.generate ~lat ~lon ~time:p ~n_eddies:4 ~seed ()
  in
  write_cube "fig1_temporal_mean" ssh;
  write_cube "fig8_scoring" (trough_cube ~seed ~lat ~lon ~p)

(* --- interpreter references --------------------------------------------- *)

let all_exts = Driver.all_extensions

(* The pipeline `mmc run/exec --threads N` and `mmc emit [--auto-par]`
   build: every registered pass at its default, auto-par iff N > 1. *)
let cli_config c ~threads =
  Driver.Pipeline.enable (Driver.default_config c) "auto-par" (threads > 1)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One job per stdin line: "THREADS<TAB>SRC<TAB>DATA_DIR".  The
   interpreter runs as `mmc run --threads THREADS --data-dir DATA_DIR`
   would, writing the program's output matrices into DATA_DIR; one line
   per job comes back: "ok<TAB>VALUE<TAB>LIVE" or "error<TAB>MESSAGE". *)
let refs () =
  let c = Driver.compose all_exts in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        (match String.split_on_char '\t' line with
        | [ threads; src; dir ] ->
            let threads = int_of_string threads in
            let src = read_file src in
            let config = cli_config c ~threads in
            let go pool =
              Runtime.Rc.reset ();
              match Driver.run ~dir ?pool ~config c src [] with
              | Driver.Ok_ v ->
                  Printf.printf "ok\t%s\t%d\n"
                    (Fmt.str "%a" Interp.Eval.pp_value v)
                    (Runtime.Rc.live_count ())
              | Driver.Failed ds ->
                  Printf.printf "error\t%s\n"
                    (String.map
                       (function '\n' | '\t' -> ' ' | ch -> ch)
                       (Driver.diags_to_string ds))
            in
            if threads > 1 then
              Runtime.Pool.with_pool threads (fun p -> go (Some p))
            else go None
        | _ -> failwith ("ref: bad job line " ^ line));
        flush stdout;
        loop ()
  in
  loop ()

(* --- traced single operations ------------------------------------------- *)

(* Spans are kept in memory and written out as one JSON line at exit.
   Each public call an op makes into a layer gets a span of its own;
   the sub-phases that live inside one such call (compose's analyses,
   the parse inside the frontend, each pass inside the pass manager)
   are read from the library's own telemetry spans, switched on only
   for compose, frontend and lower, so that no run-time counter slows
   the interpreter or the native child. *)
let spans : (string * float) list ref = ref []
let counts : (string * int) list ref = ref []
let strings : (string * string) list ref = ref []
let count name n = counts := (name, n) :: !counts

let span name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      spans := (name, (Unix.gettimeofday () -. t0) *. 1e3) :: !spans)

let with_telemetry f =
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Support.Remark.reset ();
  Support.Remark.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Support.Telemetry.set_enabled false;
      Support.Remark.set_enabled false)

let library_spans names =
  let all = Support.Telemetry.spans () in
  List.iter
    (fun name ->
      let ms =
        List.fold_left
          (fun acc (s : Support.Telemetry.span) ->
            if s.sp_name = name then acc +. (s.sp_dur *. 1e3) else acc)
          0. all
      in
      spans := (name, ms) :: !spans)
    names

let fail fmt = Printf.ksprintf failwith fmt

let ok_or_fail = function
  | Driver.Ok_ x -> x
  | Driver.Failed ds -> fail "%s" (Driver.diags_to_string ds)

(* compose -> frontend -> lower, as every mmc subcommand starts. *)
let compile ~threads src =
  with_telemetry @@ fun () ->
  let c = span "compose" (fun () -> Driver.compose all_exts) in
  library_spans
    [ "compose.determinism"; "compose.wellformed"; "compose.lalr";
      "compose.scanner" ];
  count "compose.lalr_states" c.Driver.table.Grammar.Lalr.n_states;
  let config = cli_config c ~threads in
  let ast = span "frontend" (fun () -> ok_or_fail (Driver.frontend c src)) in
  let prog = span "lower" (fun () -> ok_or_fail (Driver.lower ~config c ast)) in
  library_spans
    ("frontend.parse"
    :: List.map
         (fun p -> "pass." ^ p.Cir.Pass.name)
         (Driver.registered_passes c @ [ Cir.Pass.rc_report ]));
  List.iter
    (fun (pass, applied, _, _) -> count ("pass." ^ pass ^ ".applied") applied)
    (Support.Remark.counts (Support.Remark.results ()));
  (c, config, prog)

let emit_c ~exec_harness prog =
  let text = span "emit" (fun () -> Cir.Emit.program ~exec_harness prog) in
  count "emit.c_bytes" (String.length text);
  text

(* The native leg of `mmc exec`, one public call per step: probe,
   cache key + lookup, compile on a miss, the supervised run of the
   cached binary, and the result-protocol parse. *)
let exec_native ~threads ~dir ~cache_dir ~config c_text =
  let tc =
    span "native.probe" (fun () ->
        match Native.Toolchain.probe () with
        | Ok tc -> tc
        | Error e -> fail "%s" (Native.Toolchain.describe_error e))
  in
  let k, cached =
    span "cache.lookup" (fun () ->
        let k =
          Native.Cache.key ~toolchain:tc
            ~pipeline:(Driver.Pipeline.canon config) c_text
        in
        (k, Native.Cache.lookup ~dir:cache_dir k))
  in
  count "cache.hit" (if cached = None then 0 else 1);
  let exe =
    match cached with
    | Some exe -> exe
    | None ->
        span "native.compile" (fun () ->
            let c_files = Native.Cache.write_sources ~dir:cache_dir ~k c_text in
            let exe = Native.Cache.exe_path ~dir:cache_dir k in
            match Native.Toolchain.compile tc ~c_files ~out:exe with
            | Ok () -> exe
            | Error e -> fail "%s" (Native.Toolchain.describe_error e))
  in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  let out = Filename.temp_file "pb_exec" ".out" in
  let err = Filename.temp_file "pb_exec" ".err" in
  let status =
    span "native.run" (fun () ->
        Native.Supervise.run
          ~env:[ ("OMP_NUM_THREADS", string_of_int threads) ]
          ~dir ~stdout_file:out ~stderr_file:err exe)
  in
  let stdout_text = read_file out in
  List.iter Sys.remove [ out; err ];
  (match status with
  | Native.Supervise.Exited 0 -> ()
  | _ -> fail "native run of %s did not exit cleanly" exe);
  match span "native.parse" (fun () -> Native.Exec.parse_output stdout_text) with
  | Ok (v, live) ->
      strings := ("value", Fmt.str "%a" Native.Exec.pp_value v) :: !strings;
      count "live" live
  | Error e -> fail "%s" (Native.Exec.describe_error e)

(* Self time of an instrumented native run, grouped by what the source
   span holds: matrix file IO, matrixMap, or a with-loop. *)
let profile ~threads ~dir ~cache_dir ~config c src =
  let _, report =
    ok_or_fail
      (Driver.profile_native ~config ~dir ~cache_dir ~threads c src)
  in
  let kind (r : Support.Profile.row) =
    match
      Support.Diag.source_line src r.r_span.Support.Pos.left.Support.Pos.line
    with
    | None -> "other"
    | Some line ->
        let has sub =
          let n = String.length sub and m = String.length line in
          let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
          go 0
        in
        if has "readMatrix" || has "writeMatrix" then "native.io"
        else if has "matrixMap" then "native.matrixmap"
        else if has "with (" then "native.withloop"
        else "other"
  in
  List.iter
    (fun name ->
      let ns =
        List.fold_left
          (fun acc (r : Support.Profile.row) ->
            if kind r = name then acc + r.r_self_ns else acc)
          0 report.Driver.Profile_report.rows
      in
      spans := (name, float_of_int ns /. 1e6) :: !spans)
    [ "native.io"; "native.matrixmap"; "native.withloop" ]

let trace op ~threads ~src_path ~dir ~cache_dir =
  let src = read_file src_path in
  let c, config, prog = compile ~threads src in
  (match op with
  | "emit" ->
      let text = emit_c ~exec_harness:false prog in
      strings := ("md5", Digest.to_hex (Digest.string text)) :: !strings
  | "exec" ->
      exec_native ~threads ~dir ~cache_dir ~config
        (emit_c ~exec_harness:true prog)
  | "run" ->
      let go pool =
        Runtime.Rc.reset ();
        let v =
          span "interp.run" (fun () -> Interp.Eval.run ?pool ~dir prog [])
        in
        strings := ("value", Fmt.str "%a" Interp.Eval.pp_value v) :: !strings;
        count "live" (Runtime.Rc.live_count ());
        count "interp.rc_allocs" (Runtime.Rc.stats ()).Runtime.Rc.allocs;
        count "interp.rc_peak_bytes" (Runtime.Rc.peak_bytes ())
      in
      if threads > 1 then Runtime.Pool.with_pool threads (fun p -> go (Some p))
      else go None
  | "profile" -> profile ~threads ~dir ~cache_dir ~config c src
  | _ -> fail "trace: unknown op %s" op);
  let obj kv = "{" ^ String.concat "," kv ^ "}" in
  let q = Support.Telemetry.json_string in
  print_endline
    (obj
       [
         q "spans" ^ ":"
         ^ obj (List.rev_map (fun (k, v) -> q k ^ ":" ^ Printf.sprintf "%.6f" v) !spans);
         q "counts" ^ ":"
         ^ obj (List.rev_map (fun (k, v) -> q k ^ ":" ^ string_of_int v) !counts);
         q "strings" ^ ":"
         ^ obj (List.rev_map (fun (k, v) -> q k ^ ":" ^ q v) !strings);
       ])

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "trace"; op; threads; src_path; dir; cache_dir ] ->
      trace op ~threads:(int_of_string threads) ~src_path ~dir ~cache_dir
  | [ "gen-dev"; dir ] -> gen_dev dir
  | [ "gen-grid"; dir; seed; lat; lon; p; rows ] ->
      gen_grid dir ~seed:(int_of_string seed) ~lat:(int_of_string lat)
        ~lon:(int_of_string lon) ~p:(int_of_string p)
        ~rows:(List.map int_of_string (String.split_on_char ',' rows))
  | [ "ref" ] -> refs ()
  | _ ->
      prerr_endline
        "usage: pb gen-dev DIR | pb gen-grid DIR SEED LAT LON P ROWS | pb ref \
         | pb trace OP THREADS SRC DATA_DIR CACHE_DIR";
      exit 2
