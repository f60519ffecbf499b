#include "tech/ntrs.h"

#include "numeric/constants.h"

namespace dsmt::tech {

using dsmt::um;

Technology make_ntrs_250nm_cu() {
  Technology t;
  t.name = "NTRS-250nm-Cu";
  t.feature_size = um(0.25);
  t.metal = materials::make_copper();
  t.ild = materials::make_oxide();
  // level, width, pitch, thickness, ild_below (all um).
  t.layers = {
      {1, um(0.30), um(0.60), um(0.48), um(0.80)},
      {2, um(0.40), um(0.80), um(0.65), um(0.70)},
      {3, um(0.40), um(0.80), um(0.65), um(0.70)},
      {4, um(0.70), um(1.40), um(1.00), um(0.80)},
      {5, um(1.60), um(3.20), um(1.60), um(1.20)},
      {6, um(2.00), um(4.00), um(2.00), um(1.50)},
  };
  t.device.vdd = 2.5;
  t.device.vt = 0.50;
  t.device.r0 = 5.3e3;       // effective min-driver resistance
  t.device.cg = 3.0e-15;     // min inverter gate cap
  t.device.cp = 3.0e-15;     // min inverter drain parasitic
  t.device.idsat_n = 3.0e-4; // 600 uA/um x 0.5 um min NMOS
  t.device.idsat_p = 1.4e-4;
  t.device.alpha = 1.30;
  t.device.vdsat0 = 1.00;
  t.device.clock_period = 1.6e-9;  // 625 MHz global clock
  t.device.rise_time = 1.0e-10;
  return t;
}

Technology make_ntrs_100nm_cu() {
  Technology t;
  t.name = "NTRS-100nm-Cu";
  t.feature_size = um(0.10);
  t.metal = materials::make_copper();
  t.ild = materials::make_oxide();
  t.layers = {
      {1, um(0.13), um(0.26), um(0.26), um(0.45)},
      {2, um(0.15), um(0.30), um(0.32), um(0.45)},
      {3, um(0.15), um(0.30), um(0.32), um(0.45)},
      {4, um(0.25), um(0.50), um(0.45), um(0.55)},
      {5, um(0.50), um(1.00), um(0.90), um(0.90)},
      {6, um(0.50), um(1.00), um(0.90), um(0.90)},
      {7, um(1.80), um(3.60), um(1.80), um(1.40)},
      {8, um(2.00), um(4.00), um(2.00), um(1.60)},
  };
  t.device.vdd = 1.2;
  t.device.vt = 0.30;
  t.device.r0 = 10.0e3;
  t.device.cg = 0.80e-15;
  t.device.cp = 0.80e-15;
  t.device.idsat_n = 9.0e-5;  // 900 uA/um x 0.1 um min NMOS
  t.device.idsat_p = 4.2e-5;
  t.device.alpha = 1.20;
  t.device.vdsat0 = 0.45;
  t.device.clock_period = 0.6e-9;  // ~1.7 GHz global clock (NTRS.97, 100 nm)
  t.device.rise_time = 5.0e-11;
  return t;
}

Technology make_ntrs_180nm_cu() {
  Technology t;
  t.name = "NTRS-180nm-Cu";
  t.feature_size = um(0.18);
  t.metal = materials::make_copper();
  t.ild = materials::make_oxide();
  t.layers = {
      {1, um(0.23), um(0.46), um(0.40), um(0.65)},
      {2, um(0.28), um(0.56), um(0.50), um(0.60)},
      {3, um(0.28), um(0.56), um(0.50), um(0.60)},
      {4, um(0.50), um(1.00), um(0.80), um(0.70)},
      {5, um(1.10), um(2.20), um(1.20), um(1.00)},
      {6, um(2.00), um(4.00), um(2.00), um(1.50)},
  };
  t.device.vdd = 1.8;
  t.device.vt = 0.42;
  t.device.r0 = 6.2e3;
  t.device.cg = 2.0e-15;
  t.device.cp = 2.0e-15;
  t.device.idsat_n = 2.1e-4;
  t.device.idsat_p = 1.0e-4;
  t.device.alpha = 1.27;
  t.device.vdsat0 = 0.80;
  t.device.clock_period = 1.2e-9;  // ~830 MHz global clock
  t.device.rise_time = 8.0e-11;
  return t;
}

Technology make_ntrs_130nm_cu() {
  Technology t;
  t.name = "NTRS-130nm-Cu";
  t.feature_size = um(0.13);
  t.metal = materials::make_copper();
  t.ild = materials::make_oxide();
  t.layers = {
      {1, um(0.17), um(0.34), um(0.32), um(0.55)},
      {2, um(0.20), um(0.40), um(0.40), um(0.50)},
      {3, um(0.20), um(0.40), um(0.40), um(0.50)},
      {4, um(0.35), um(0.70), um(0.60), um(0.60)},
      {5, um(0.70), um(1.40), um(1.00), um(0.90)},
      {6, um(1.40), um(2.80), um(1.60), um(1.20)},
      {7, um(2.00), um(4.00), um(2.00), um(1.50)},
  };
  t.device.vdd = 1.5;
  t.device.vt = 0.36;
  t.device.r0 = 8.0e3;
  t.device.cg = 1.3e-15;
  t.device.cp = 1.3e-15;
  t.device.idsat_n = 1.5e-4;
  t.device.idsat_p = 7.0e-5;
  t.device.alpha = 1.24;
  t.device.vdsat0 = 0.60;
  t.device.clock_period = 0.85e-9;  // ~1.2 GHz global clock
  t.device.rise_time = 7.0e-11;
  return t;
}

namespace {
Technology with_alcu(Technology t, const char* name) {
  t.metal = materials::make_alcu();
  t.name = name;
  return t;
}
}  // namespace

Technology make_ntrs_250nm_alcu() {
  return with_alcu(make_ntrs_250nm_cu(), "NTRS-250nm-AlCu");
}

Technology make_ntrs_100nm_alcu() {
  return with_alcu(make_ntrs_100nm_cu(), "NTRS-100nm-AlCu");
}

}  // namespace dsmt::tech
