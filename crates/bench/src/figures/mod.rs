//! One module per paper table/figure (the DESIGN.md experiment index).

pub mod ablations;
pub mod chaos_sweep;
pub mod fig01_energy_efficiency;
pub mod fig02_alibaba;
pub mod fig03_rodinia;
pub mod fig04_djinn_memory;
pub mod fig06_09_cluster;
pub mod fig10a_qos;
pub mod fig10b_accuracy;
pub mod fig11_power;
pub mod fig12_dnn;
pub mod recovery_sweep;
pub mod scale_sweep;
pub mod trace_study;
