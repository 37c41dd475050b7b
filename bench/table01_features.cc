/**
 * @file
 * Reproduces paper Table I: the qualitative feature matrix of local
 * storage techniques. For the two schemes implemented in this
 * repository as executable models (SPDK vhost and BM-Store) each
 * check mark is backed by a measurable artifact, cited in the notes.
 */

#include <cstdio>

#include "report.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    bench::Report report("table01_features", argc, argv);
    auto feature = [&report](const char *property, const char *mdev,
                             const char *vhost, const char *sriov,
                             const char *leapio, const char *fvm,
                             const char *bms) {
        report.row("features")
            .add("property", property)
            .add("mdev", mdev)
            .add("spdkVhost", vhost)
            .add("srIov", sriov)
            .add("leapIo", leapio)
            .add("fvm", fvm)
            .add("bmStore", bms);
    };
    feature("Host efficiency", "-", "-", "yes", "yes", "yes", "yes");
    feature("Compatibility", "yes", "yes", "-", "yes", "yes", "yes");
    feature("Transparency", "-", "-", "yes", "-", "-", "yes");
    feature("Performance", "yes", "yes", "yes", "-", "yes", "yes");
    feature("Deployability", "yes", "yes", "yes", "-", "-", "yes");
    feature("Manageability", "-", "-", "-", "-", "-", "yes");
    report.table("features",
                 "Table I — features of existing local storage techniques");

    std::printf(
        "\nevidence in this repository for the two modeled schemes:\n"
        "  host efficiency : SPDK vhost burns 1-16 dedicated cores "
        "(fig01, tco_analysis); BM-Store zero (fig08)\n"
        "  compatibility   : BM-Store serves NVMe SSDs, SATA HDDs, ZNS "
        "and remote volumes (compat_sata_hdd, ext_remote_storage, "
        "zns tests)\n"
        "  transparency    : stock NVMe driver on every kernel "
        "(table06); vhost needs virtio + a host-side target\n"
        "  performance     : ~3 us constant overhead vs native (fig08); "
        "vhost collapses on seq-r-256 (fig09)\n"
        "  deployability   : no host software at all; the control "
        "plane rides MCTP out of band (out_of_band_mgmt example)\n"
        "  manageability   : remote namespace mgmt, I/O monitor, "
        "hot-upgrade, hot-plug (fig15, mgmt tests)\n");
    return report.finish();
}
