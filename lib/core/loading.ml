module Logic = Leakage_circuit.Logic
module Report = Leakage_spice.Leakage_report
module Physics = Leakage_device.Physics
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

let m_sweep_points = Tm.counter "loading.sweep_points"

type ld_point = {
  current : float;
  ld_sub : float;
  ld_gate : float;
  ld_btbt : float;
  ld_total : float;
}

let default_currents = Array.init 13 (fun i -> float_of_int i *. 250.0e-9)

(* Loading gates inject toward the opposite rail: into nets at '0'
   (on-PMOS tunneling of the loads) and out of nets at '1'. *)
let signed_current magnitude logic_value =
  match logic_value with
  | Logic.Zero -> magnitude
  | Logic.One -> -.magnitude

let percent ~base v =
  if base = 0.0 then 0.0 else (v -. base) /. base *. 100.0

let ld_of ~current ~nominal loaded =
  {
    current;
    ld_sub = percent ~base:nominal.Report.isub loaded.Report.isub;
    ld_gate = percent ~base:nominal.Report.igate loaded.Report.igate;
    ld_btbt = percent ~base:nominal.Report.ibtbt loaded.Report.ibtbt;
    ld_total =
      percent ~base:(Report.total nominal) (Report.total loaded);
  }

let sweep ~device ~temp ?vdd ~currents ~inject kind vector =
  Trace.with_span ~cat:"loading" "sweep"
    ~args:[ ("cell", Leakage_circuit.Gate.name kind) ]
  @@ fun () ->
  Tm.add m_sweep_points (Array.length currents);
  let tb = Testbench.make kind vector in
  let bench = Testbench.compile ~device ~temp ?vdd tb in
  let nominal = (Testbench.solve bench).Testbench.leakage in
  Array.map
    (fun magnitude ->
      let injections = inject tb magnitude in
      let loaded = (Testbench.solve ~injections bench).Testbench.leakage in
      ld_of ~current:magnitude ~nominal loaded)
    currents

let input_sweep ~device ~temp ?vdd ?(pin = 0) ?(currents = default_currents)
    kind vector =
  let arity = Leakage_circuit.Gate.arity kind in
  if pin < 0 || pin >= arity then invalid_arg "Loading.input_sweep: bad pin";
  let inject (tb : Testbench.t) magnitude =
    [ (tb.pin_nets.(pin), signed_current magnitude vector.(pin)) ]
  in
  sweep ~device ~temp ?vdd ~currents ~inject kind vector

let output_sweep ~device ~temp ?vdd ?(currents = default_currents) kind vector =
  let out_value = Leakage_circuit.Gate.eval_logic kind vector in
  let inject (tb : Testbench.t) magnitude =
    [ (tb.out_net, signed_current magnitude out_value) ]
  in
  sweep ~device ~temp ?vdd ~currents ~inject kind vector

let combined ~device ~temp ?vdd ~input_current ~output_current kind vector =
  let tb = Testbench.make kind vector in
  let bench = Testbench.compile ~device ~temp ?vdd tb in
  let nominal = (Testbench.solve bench).Testbench.leakage in
  let out_value = Leakage_circuit.Gate.eval_logic kind vector in
  let injections =
    (tb.out_net, signed_current output_current out_value)
    :: Array.to_list
         (Array.mapi
            (fun pin net -> (net, signed_current input_current vector.(pin)))
            tb.pin_nets)
  in
  let loaded = (Testbench.solve ~injections bench).Testbench.leakage in
  ld_of ~current:input_current ~nominal loaded

(* Fig 9 follows eq. (3)'s normalization literally: L_NOM is the cell in
   isolation (ideal rail inputs). The loaded case then includes what the
   reference driver itself injects into the input net — the driver's
   off-device subthreshold and junction currents — which is precisely the
   temperature-dependent mechanism §5.2 describes ("the contribution of the
   subthreshold and the junction current of the PMOS of the inverter D to
   node IN increases at a higher temperature"). *)
let temperature_sweep ~device ?vdd ~temps_celsius ~input_current
    ~output_current kind vector =
  let out_value = Leakage_circuit.Gate.eval_logic kind vector in
  let tb = Testbench.make kind vector in
  Array.map
    (fun celsius ->
      let temp = Physics.celsius_to_kelvin celsius in
      let nominal = Testbench.isolated_components ~device ~temp ?vdd kind vector in
      let injections =
        (tb.Testbench.out_net, signed_current output_current out_value)
        :: Array.to_list
             (Array.mapi
                (fun pin net -> (net, signed_current input_current vector.(pin)))
                tb.Testbench.pin_nets)
      in
      let loaded =
        (Testbench.solve ~injections (Testbench.compile ~device ~temp ?vdd tb))
          .Testbench.leakage
      in
      (celsius, ld_of ~current:input_current ~nominal loaded))
    temps_celsius
